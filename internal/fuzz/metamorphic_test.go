package fuzz

import (
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/core/oracle"
	"qtrtest/internal/opt"
	"qtrtest/internal/rules"
)

// metamorphicCases are hand-written queries that exercise every rewrite in
// the catalog. Table names are per-catalog; the column aliases follow the
// sqlgen convention so rewritten trees re-render cleanly.
var metamorphicCases = map[string][]string{
	"tpch": {
		// Multi-conjunct Select: reorder-predicates applies.
		"SELECT * FROM (SELECT s_suppkey AS c1, s_nationkey AS c2, s_acctbal AS c3 FROM supplier) AS t1 WHERE ((c1 > 3) AND (c2 > 1))",
		// Inner join: commute-joins applies (and its identity Project).
		"SELECT * FROM (SELECT n_nationkey AS c1, n_name AS c2 FROM nation) AS t1 JOIN (SELECT s_suppkey AS c3, s_nationkey AS c4 FROM supplier) AS t2 ON (c1 = c4)",
		// Join with compound predicate: both conjunct reversal and commutation.
		"SELECT * FROM (SELECT c_custkey AS c1, c_nationkey AS c2 FROM customer) AS t1 JOIN (SELECT o_orderkey AS c3, o_custkey AS c4, o_totalprice AS c5 FROM orders) AS t2 ON ((c1 = c4) AND (c1 <= c3))",
		// Aggregation above a join: rewrites below a GroupBy.
		"SELECT c2, MIN(c3) AS c9 FROM (SELECT * FROM (SELECT s_suppkey AS c1, s_nationkey AS c2, s_acctbal AS c3 FROM supplier) AS t1 WHERE ((c2 >= 0) AND (c3 > 0.0))) AS t3 GROUP BY c2",
		// Sorted output: rewrites must preserve the root ordering contract.
		"SELECT * FROM (SELECT p_partkey AS c1, p_size AS c2 FROM part) AS t1 WHERE ((c2 > 10) AND (c1 > 0)) ORDER BY c1",
		// Nested integer arithmetic in a projection and a comparison inside
		// the filter: the EET arithmetic rewrites (commute, associate) and
		// comparison negation have sites here.
		"SELECT ((c1 + c2) + c1) AS c9 FROM (SELECT s_suppkey AS c1, s_nationkey AS c2 FROM supplier) AS t1 WHERE ((c1 + c2) < 20)",
	},
	"star": {
		"SELECT * FROM (SELECT f_salekey AS c1, f_storekey AS c2, f_quantity AS c3 FROM sales) AS t1 WHERE ((c3 > 1) AND (c2 > 2))",
		"SELECT * FROM (SELECT s_storekey AS c1, s_name AS c2 FROM store) AS t1 JOIN (SELECT f_salekey AS c3, f_storekey AS c4 FROM sales) AS t2 ON (c1 = c4)",
		"SELECT c2, COUNT(*) AS c9, MAX(c3) AS c10 FROM (SELECT * FROM (SELECT f_salekey AS c1, f_storekey AS c2, f_quantity AS c3 FROM sales) AS t1 WHERE ((c1 > 0) AND (c3 >= 0))) AS t3 GROUP BY c2",
	},
}

// TestRewritesPreserveResults: under the pristine registry, every applicable
// metamorphic rewrite — tree-level and EET — must be result-equivalent to
// the original query on both shipped catalogs. A mismatch here means a
// rewrite is wrong — the campaign would report optimizer bugs that are
// really fuzzer bugs. EET rewrites pick one site per seed, so they run at
// several seeds to spread over different sites.
func TestRewritesPreserveResults(t *testing.T) {
	catalogs := map[string]*catalog.Catalog{
		"tpch": catalog.LoadTPCH(catalog.DefaultTPCHConfig()),
		"star": catalog.LoadStar(catalog.DefaultStarConfig()),
	}
	treeSeeds := []int64{0}
	eetSeeds := []int64{0, 1, 2, 5}
	applied := make(map[string]int) // global: some EET rewrites need the tpch arith case
	allRewrites := rewritesFor(Config{EET: true})
	rn, err := oracle.New(oracle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for db, cases := range metamorphicCases {
		cat := catalogs[db]
		o := opt.New(rules.DefaultRegistry(), cat)
		c := &campaign{cfg: Config{Catalog: cat}, opt: o}
		dbApplied := make(map[string]int)
		for _, sql := range cases {
			bound, err := bind.BindSQL(sql, cat)
			if err != nil {
				t.Fatalf("%s: bind %q: %v", db, sql, err)
			}
			res, err := o.Optimize(bound.Tree, bound.MD, opt.Options{})
			if err != nil {
				t.Fatalf("%s: optimize %q: %v", db, sql, err)
			}
			base, err := rn.Base(cat, oracle.Prepare(res.Plan))
			if err != nil {
				t.Fatalf("%s: execute %q: %v", db, sql, err)
			}
			for _, rw := range allRewrites {
				seeds := treeSeeds
				if isEETRewrite(rw.Name) {
					seeds = eetSeeds
				}
				for _, seed := range seeds {
					alt := rw.Apply(bound.Tree, bound.MD, seed)
					if alt == nil {
						continue
					}
					applied[rw.Name]++
					dbApplied[rw.Name]++
					aq, _, err := c.plan(alt, bound.MD)
					if err != nil {
						t.Errorf("%s: rewrite %s (seed %d) of %q failed to plan: %v", db, rw.Name, seed, sql, err)
						continue
					}
					altPlan := aq.res.Plan
					out, err := rn.Edge(&base, oracle.Prepare(altPlan))
					if err != nil {
						t.Errorf("%s: rewrite %s (seed %d) of %q failed to execute: %v", db, rw.Name, seed, sql, err)
						continue
					}
					if out.Verdict == oracle.Mismatch {
						t.Errorf("%s: rewrite %s (seed %d) changed the results of %q: %s\nbase plan:\n%s\nalt plan:\n%s",
							db, rw.Name, seed, sql, out.Detail, res.Plan, altPlan)
					}
				}
			}
		}
		// Equivalence that never ran proves nothing: every tree-level rewrite
		// must have applied to at least one case per catalog.
		for _, rw := range Rewrites() {
			if dbApplied[rw.Name] == 0 {
				t.Errorf("%s: rewrite %s applied to no test case", db, rw.Name)
			}
		}
	}
	// The EET catalog is asserted globally: the arithmetic rewrites need the
	// tpch arithmetic case, but every catalog entry must have run somewhere.
	for _, rw := range allRewrites {
		if applied[rw.Name] == 0 {
			t.Errorf("rewrite %s applied to no test case", rw.Name)
		}
	}
}

func isEETRewrite(name string) bool {
	return len(name) > 4 && name[:4] == "eet-"
}

// TestRewritesReturnNilWhenInapplicable pins the applicability contract:
// rewrites must decline rather than return an unchanged tree (a no-op
// rewrite would make every comparison a skipped self-comparison).
func TestRewritesReturnNilWhenInapplicable(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	// Single-conjunct filter, no joins: only redundant-filter applies.
	bound, err := bind.BindSQL("SELECT * FROM (SELECT n_nationkey AS c1, n_name AS c2 FROM nation) AS t1 WHERE (c1 > 5)", cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, rw := range rewritesFor(Config{EET: true}) {
		alt := rw.Apply(bound.Tree, bound.MD, 0)
		switch rw.Name {
		case "reorder-predicates", "commute-joins":
			if alt != nil {
				t.Errorf("rewrite %s should not apply to a single-conjunct join-free query", rw.Name)
			}
		case "redundant-filter":
			if alt == nil {
				t.Errorf("rewrite %s should always apply to a query with output columns", rw.Name)
			}
		case "eet-commute-arith", "eet-assoc-arith":
			// No arithmetic anywhere in the query: no candidate sites.
			if alt != nil {
				t.Errorf("rewrite %s should not apply to an arithmetic-free query", rw.Name)
			}
		case "eet-negate-comparison", "eet-null-tautology", "eet-double-negation", "eet-or-false-branch":
			// The filter (c1 > 5) is a typed boolean site for all of these.
			if alt == nil {
				t.Errorf("rewrite %s should apply to a comparison filter", rw.Name)
			}
		case "eet-de-morgan":
			// No multi-kid connective in the filter.
			if alt != nil {
				t.Errorf("rewrite %s should not apply to a single-comparison filter", rw.Name)
			}
		}
	}
}
