package opt

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/memo"
	"qtrtest/internal/rules"
)

// The differential harness pins the optimizer hot path: for the full TPC-H
// and star workload corpora (with and without individual exploration rules
// disabled), the memo shape, exercised RuleSet and chosen plan must be
// byte-identical to the snapshot captured before the fingerprint-interning
// and dirty-queue-exploration overhaul. Any scheduling or interning change
// that alters exploration results shows up here as a diff against
// testdata/differential_golden.json.
//
// Regenerate (only when an intentional semantic change is made) with:
//
//	go test ./internal/opt -run TestDifferentialGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the differential golden file")

// tpchCorpus mirrors the root workload_test.go queries; duplicated here so
// the harness is self-contained inside the opt package.
var tpchCorpus = []string{
	"SELECT n_name FROM nation WHERE n_regionkey = 1",
	"SELECT n_name, r_name FROM nation JOIN region ON n_regionkey = r_regionkey WHERE r_name = 'EUROPE'",
	"SELECT s_name FROM supplier JOIN nation ON s_nationkey = n_nationkey JOIN region ON n_regionkey = r_regionkey WHERE r_name = 'AFRICA'",
	"SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus",
	"SELECT * FROM (SELECT c_nationkey, COUNT(*) AS n FROM customer GROUP BY c_nationkey) AS t WHERE n > 4",
	"SELECT c_name FROM customer LEFT JOIN orders ON c_custkey = o_custkey WHERE o_orderkey IS NULL",
	"SELECT p_name FROM part WHERE EXISTS (SELECT 1 AS one FROM lineitem WHERE l_partkey = p_partkey AND l_quantity > 45)",
	"SELECT c_name FROM customer WHERE NOT EXISTS (SELECT 1 AS one FROM orders WHERE o_custkey = c_custkey)",
	"SELECT n_name FROM nation UNION ALL SELECT r_name FROM region",
	"SELECT c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC LIMIT 10",
	"SELECT l_returnflag, SUM(l_quantity) AS q, AVG(l_discount) AS d, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag",
	"SELECT a.n_name FROM nation AS a JOIN nation AS b ON a.n_regionkey = b.n_nationkey WHERE b.n_name = 'CANADA'",
	"SELECT l_extendedprice * l_discount AS rebate FROM lineitem WHERE l_shipdate < 100",
	"SELECT c_mktsegment FROM customer GROUP BY c_mktsegment",
	"SELECT o_orderkey FROM orders WHERE o_orderdate >= 1000 AND o_orderdate < 2000",
	"SELECT c_nationkey, COUNT(*) AS n FROM customer GROUP BY c_nationkey HAVING COUNT(*) > 4",
	"SELECT s_nationkey FROM supplier GROUP BY s_nationkey HAVING MAX(s_acctbal) > 5000",
	"SELECT n_name FROM nation WHERE n_regionkey IN (0, 3)",
	"SELECT r_name FROM region WHERE r_regionkey NOT IN (1, 2)",
	"SELECT p_name FROM part WHERE p_size BETWEEN 10 AND 12",
}

// starCorpus mirrors the root star_workload_test.go queries.
var starCorpus = []string{
	"SELECT p_category, SUM(f_amount) AS amt FROM sales JOIN product ON f_productkey = p_productkey GROUP BY p_category",
	"SELECT s_channel, d_year, COUNT(*) AS n FROM sales JOIN store ON f_storekey = s_storekey JOIN date_dim ON f_datekey = d_datekey GROUP BY s_channel, d_year",
	"SELECT h_name FROM shopper LEFT JOIN sales ON h_shopperkey = f_shopperkey WHERE f_salekey IS NULL",
	"SELECT h_name FROM shopper WHERE EXISTS (SELECT 1 AS one FROM sales WHERE f_shopperkey = h_shopperkey AND f_quantity > 15)",
	"SELECT d_year, COUNT(*) AS n FROM sales JOIN date_dim ON f_datekey = d_datekey WHERE d_quarter = 2 GROUP BY d_year",
	"SELECT p_name FROM product UNION ALL SELECT s_name FROM store",
	"SELECT f_storekey, SUM(f_amount) AS amt FROM sales GROUP BY f_storekey HAVING COUNT(*) > 30",
}

// diffEntry is one optimization outcome the snapshot pins.
type diffEntry struct {
	DB        string  `json:"db"`
	Query     string  `json:"query"`
	Disabled  []int   `json:"disabled,omitempty"`
	NumGroups int     `json:"num_groups"`
	NumExprs  int     `json:"num_exprs"`
	RuleSet   []int   `json:"rule_set"`
	PlanHash  string  `json:"plan_hash"`
	Cost      float64 `json:"cost"`
}

func diffOptimize(t *testing.T, o *Optimizer, cat *catalog.Catalog, db, sqlText string, disabled rules.Set, opts Options) diffEntry {
	t.Helper()
	bound, err := bind.BindSQL(sqlText, cat)
	if err != nil {
		t.Fatalf("bind %q: %v", sqlText, err)
	}
	opts.Disabled = disabled
	res, err := o.Optimize(bound.Tree, bound.MD, opts)
	if err != nil {
		t.Fatalf("optimize %q (disabled %v): %v", sqlText, disabled.Sorted(), err)
	}
	e := diffEntry{
		DB:        db,
		Query:     sqlText,
		NumGroups: res.Memo.NumGroups(),
		NumExprs:  res.Memo.NumExprs(),
		PlanHash:  res.Plan.Hash(),
		Cost:      res.Cost,
	}
	for _, id := range disabled.Sorted() {
		e.Disabled = append(e.Disabled, int(id))
	}
	for _, id := range res.RuleSet.Sorted() {
		e.RuleSet = append(e.RuleSet, int(id))
	}
	return e
}

// collectDifferential optimizes every corpus query on both schemas, then
// re-optimizes each with every exercised exploration rule disabled in turn —
// exactly the Plan(q) / Plan(q,¬R) calls the campaign engine's edge costing
// issues.
func collectDifferential(t *testing.T, opts Options) []diffEntry {
	t.Helper()
	var out []diffEntry
	run := func(db string, cat *catalog.Catalog, corpus []string) {
		o := New(rules.DefaultRegistry(), cat)
		for _, q := range corpus {
			base := diffOptimize(t, o, cat, db, q, nil, opts)
			out = append(out, base)
			for _, id := range base.RuleSet {
				if id > 100 {
					continue // implementation rules: disabling can make queries unplannable
				}
				out = append(out, diffOptimize(t, o, cat, db, q, rules.NewSet(rules.ID(id)), opts))
			}
		}
	}
	run("tpch", catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1.0, Seed: 42}), tpchCorpus)
	run("star", catalog.LoadStar(catalog.StarConfig{ScaleRows: 1.0, Seed: 42}), starCorpus)
	return out
}

const goldenPath = "testdata/differential_golden.json"

func TestDifferentialGolden(t *testing.T) {
	got := collectDifferential(t, Options{})
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden to capture): %v", err)
	}
	var want []diffEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("entry count changed: got %d, golden %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want[i]) {
			t.Errorf("entry %d diverged from pre-overhaul snapshot:\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
	}
}

// TestDifferentialReferenceExplorer runs the whole corpus twice in-process —
// once through the production dirty-queue explorer and once through the
// preserved pass-based reference (exploreReference) — and requires identical
// memo shapes, rule sets, plans, and costs. Together with the golden file
// this pins both directions: golden proves nothing drifted from the
// pre-overhaul code, and this proves the two explorers stay equivalent as
// rules evolve.
func TestDifferentialReferenceExplorer(t *testing.T) {
	got := collectDifferential(t, Options{})
	ref := collectDifferential(t, Options{exploreOverride: exploreReference})
	if len(got) != len(ref) {
		t.Fatalf("entry count differs: dirty-queue %d, reference %d", len(got), len(ref))
	}
	for i := range ref {
		if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", ref[i]) {
			t.Errorf("entry %d: dirty-queue explorer diverged from pass-based reference:\n got: %+v\nwant: %+v", i, got[i], ref[i])
		}
	}
}

// TestScratchPoisonIsInvisible is the scratch lifetime guard on the
// differential harness, at default and at the tight limits below: with every
// ReleaseBindings overwriting the bindings, substitutes and payload scratch it
// recycles, and every costing the join keys it recycles, each entry must equal
// the unpoisoned run's. An expression, payload or plan that kept a pointer
// into recycled scratch would read poison and differ, or panic.
func TestScratchPoisonIsInvisible(t *testing.T) {
	defer memo.PoisonReleased.Store(false)
	for _, lim := range []Options{{}, {MaxExprs: 40, MaxPasses: 2}, {MaxExprs: 75, MaxPasses: 1}, {MaxExprs: 300, MaxPasses: 3}} {
		want := collectDifferential(t, lim)
		memo.PoisonReleased.Store(true)
		got := collectDifferential(t, lim)
		memo.PoisonReleased.Store(false)
		for i := range want {
			if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want[i]) {
				t.Errorf("limits %+v entry %d: poisoned scratch changed the outcome:\n got: %+v\nwant: %+v", lim, i, got[i], want[i])
			}
		}
	}
}

// TestDifferentialTightLimits re-runs the comparison under a tight expression
// budget and pass cap, where the two explorers' cutoff behavior (the
// mid-rule maxExprs abort and the round/pass bound) must also coincide.
func TestDifferentialTightLimits(t *testing.T) {
	for _, lim := range []Options{
		{MaxExprs: 40, MaxPasses: 2},
		{MaxExprs: 75, MaxPasses: 1},
		{MaxExprs: 300, MaxPasses: 3},
	} {
		ref := lim
		ref.exploreOverride = exploreReference
		got := collectDifferential(t, lim)
		want := collectDifferential(t, ref)
		for i := range want {
			if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", want[i]) {
				t.Errorf("limits %+v entry %d: dirty-queue diverged from reference:\n got: %+v\nwant: %+v", lim, i, got[i], want[i])
			}
		}
	}
}
