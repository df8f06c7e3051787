package opt_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/memo"
	"qtrtest/internal/opt"
	"qtrtest/internal/rules"
)

// capQuery reaches the exploration cap through join enumeration: region ⋈
// supplier, joined with customer ⋈ supplier, under an OR … IS NULL filter,
// fills the memo to 1 200 expressions in 409 groups.
const capQuery = "SELECT c1 AS c1, c2 AS c2, c3 AS c3, c6 AS c6, c7 AS c7, c8 AS c8, c9 AS c9, c11 AS c11 FROM (" +
	"SELECT * FROM (SELECT c1 AS c1, c2 AS c2, c3 AS c3, c6 AS c6, c7 AS c7, c8 AS c8, c9 AS c9, c11 AS c11 FROM (" +
	"SELECT * FROM (SELECT * FROM (SELECT r_regionkey AS c1, r_name AS c2 FROM region) AS t1 " +
	"JOIN (SELECT s_suppkey AS c3, s_name AS c4, s_nationkey AS c5, s_acctbal AS c6 FROM supplier) AS t2 ON ((c1 = c3) AND (c1 <= c5))) AS t5 " +
	"JOIN (SELECT * FROM (SELECT c_custkey AS c7, c_name AS c8, c_nationkey AS c9, c_acctbal AS c10, c_mktsegment AS c11 FROM customer) AS t3 " +
	"JOIN (SELECT s_suppkey AS c12, s_name AS c13, s_nationkey AS c14, s_acctbal AS c15 FROM supplier) AS t4 ON (c7 = c12)) AS t6 ON (c6 = c15)) AS t7) AS t8 " +
	"WHERE ((c7 < 29) OR (c7 IS NULL))) AS t9"

// pauseOutcome renders everything an optimization answers that a paused and
// finished one must repeat: memo size, rule set, interactions, plan hash and
// cost (its bits), and with withouts Plan(q,¬id) for every id given.
func pauseOutcome(res *opt.Result, withouts []rules.ID) string {
	var inter []string
	for pair := range res.Interactions {
		inter = append(inter, fmt.Sprint(pair))
	}
	sort.Strings(inter)
	out := fmt.Sprintf("memo %d exprs %d groups, rules %v, interactions %v, plan %s cost %x",
		res.Memo.NumExprs(), res.Memo.NumGroups(), res.RuleSet.Sorted(), inter, res.Plan.Hash(), math.Float64bits(res.Cost))
	for _, id := range withouts {
		out += fmt.Sprintf("\nwithout %d: %s", id, planAnswer(res.Without(id)))
	}
	return out
}

// TestPauseAnywhereMatchesOptimize is the resumable exploration's reference
// test. For each query of the differential TPC-H and star corpora, capQuery
// (it must stop at the expression cap), and 200 fuzz-drawn trees at each of
// seeds 1 and 42: Explore with the stop set {r} for every exploration rule r of
// RuleSet(q), and {r, s} for every pair of them, then Finish, must answer what
// a plain Optimize with the same options answers (default caps, and for every
// fourth query also exploration cut at one round): memo size, RuleSet,
// Interactions, plan hash, bit-equal cost, and Without(id) for every rule of
// RuleSet(q) — every rule for the single-rule stops, and for the pairs the
// implementation rules, whose Without re-costs the held memo (an exploration
// rule's Without is a fresh Optimize of its own). Before Finish, the paused
// result must hold every stop rule and no rule the full optimization does not.
func TestPauseAnywhereMatchesOptimize(t *testing.T) {
	trees := 200
	if testing.Short() {
		trees = 40
	}
	pauseAnywhere(t, trees, false)
}

// TestPauseAnywhereUnderScratchPoison is the scratch lifetime guard on the
// pause-anywhere corpus (40 fuzz-drawn trees a seed): with every
// ReleaseBindings overwriting the bindings, substitutes and payload scratch it
// recycles, and every costing the join keys it recycles, each paused and
// finished exploration and each Optimize must still answer what an unpoisoned
// Optimize answers. An expression, payload or plan that kept a pointer into
// recycled scratch would read poison and differ, or panic.
func TestPauseAnywhereUnderScratchPoison(t *testing.T) {
	pauseAnywhere(t, 40, true)
}

// pauseAnywhere runs the pause-anywhere comparison over the corpora with trees
// fuzz-drawn trees a seed; with poison, every optimization but the unpoisoned
// reference runs with memo.PoisonReleased set.
func pauseAnywhere(t *testing.T, trees int, poison bool) {
	defer memo.PoisonReleased.Store(false)
	reg := rules.DefaultRegistry()
	var runs, paused int
	for _, d := range []struct {
		db     string
		cat    *catalog.Catalog
		corpus []string
	}{
		{"tpch", catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1, Seed: 42}), append([]string{capQuery}, opt.TPCHCorpus...)},
		{"star", catalog.LoadStar(catalog.StarConfig{ScaleRows: 1, Seed: 42}), opt.StarCorpus},
	} {
		o := opt.New(reg, d.cat)
		for qi, q := range withoutQueries(t, d.cat, d.corpus, trees) {
			variants := []opt.Options{{}}
			if qi%4 == 0 {
				variants = append(variants, opt.Options{MaxPasses: 1})
			}
			for _, opts := range variants {
				name := fmt.Sprintf("%s/q%d max passes %d", d.db, qi, opts.MaxPasses)
				memo.PoisonReleased.Store(false)
				ref, err := o.Optimize(q.Tree, q.MD, opts)
				if err != nil {
					continue // the front end can draw a query no rule set plans
				}
				all := ref.RuleSet.Sorted()
				var explored, impl []rules.ID
				for _, id := range all {
					if rule, _ := reg.ByID(id); rule.Kind() == rules.KindExploration {
						explored = append(explored, id)
					} else {
						impl = append(impl, id)
					}
				}
				want, wantImpl := pauseOutcome(ref, all), pauseOutcome(ref, impl)
				if d.db == "tpch" && qi == 0 && opts.MaxPasses == 0 && ref.Memo.NumExprs() < 1200 {
					t.Errorf("capQuery stops at %d memo expressions, before the cap", ref.Memo.NumExprs())
				}
				ref.Release()
				memo.PoisonReleased.Store(poison)
				if poison {
					res, err := o.Optimize(q.Tree, q.MD, opts)
					if err != nil {
						t.Fatalf("%s under poison: %v", name, err)
					}
					if got := pauseOutcome(res, all); got != want {
						t.Fatalf("%s: Optimize under poison\n%s\nunpoisoned\n%s", name, got, want)
					}
					res.Release()
				}
				var stops [][]rules.ID
				for i, a := range explored {
					stops = append(stops, []rules.ID{a})
					for _, b := range explored[i+1:] {
						stops = append(stops, []rules.ID{a, b})
					}
				}
				for _, stop := range stops {
					res, err := o.Explore(q.Tree, q.MD, opts, stop...)
					if err != nil {
						t.Fatalf("%s stop %v: %v", name, stop, err)
					}
					if res.Plan != nil {
						t.Fatalf("%s stop %v: Explore costed the memo", name, stop)
					}
					for _, id := range stop {
						if !res.RuleSet.Contains(id) {
							t.Fatalf("%s stop %v: paused without rule %d in %v", name, stop, id, res.RuleSet.Sorted())
						}
					}
					for id := range res.RuleSet {
						if !ref.RuleSet.Contains(id) {
							t.Fatalf("%s stop %v: rule %d exercised before the pause, not by Optimize", name, stop, id)
						}
					}
					before := res.Memo.NumExprs()
					if _, err := res.Without(stop[0]); err == nil {
						t.Fatalf("%s stop %v: Without answers before Finish", name, stop)
					}
					if err := res.Finish(); err != nil {
						t.Fatalf("%s stop %v: Finish: %v", name, stop, err)
					}
					if res.Memo.NumExprs() > before {
						paused++
					}
					runs++
					withouts, w := impl, wantImpl
					if len(stop) == 1 {
						withouts, w = all, want
					}
					if got := pauseOutcome(res, withouts); got != w {
						t.Fatalf("%s stop %v: paused and finished\n%s\nOptimize\n%s", name, stop, got, w)
					}
					plan := res.Plan
					if err := res.Finish(); err != nil || res.Plan != plan {
						t.Fatalf("%s stop %v: a second Finish: %v", name, stop, err)
					}
					res.Release()
					if err := res.Finish(); res.Plan == nil || err != nil {
						t.Fatalf("%s stop %v: Finish after Release of a finished result: %v", name, stop, err)
					}
				}
			}
		}
	}
	t.Logf("%d paused explorations finished, %d of them with exploration left to do", runs, paused)
	if paused < runs/2 {
		t.Errorf("only %d of %d explorations paused before their end", paused, runs)
	}
}

// TestFinishOnReleasedPausedResult: a paused Result released before Finish
// cannot be finished, and a stop rule only costing exercises makes Explore
// return a finished result.
func TestFinishOnReleasedPausedResult(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1, Seed: 42})
	o := opt.New(rules.DefaultRegistry(), cat)
	b, err := bind.BindSQL(capQuery, cat)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := o.Optimize(b.Tree, b.MD, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref.Release()
	var expl, impl rules.ID
	for _, id := range ref.RuleSet.Sorted() {
		switch rule, _ := o.Registry().ByID(id); {
		case rule.Kind() == rules.KindExploration && expl == 0:
			expl = id
		case rule.Kind() == rules.KindImplementation && impl == 0:
			impl = id
		}
	}
	res, err := o.Explore(b.Tree, b.MD, opt.Options{}, expl)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	if err := res.Finish(); err == nil || res.Plan != nil {
		t.Errorf("Finish on a released paused result: plan %v, error %v", res.Plan, err)
	}
	res, err = o.Explore(b.Tree, b.MD, opt.Options{}, expl, impl)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	if res.Plan == nil || res.Plan.Hash() != ref.Plan.Hash() || res.Cost != ref.Cost {
		t.Errorf("Explore with implementation rule %d to stop at: plan %v, want Optimize's", impl, res.Plan)
	}
}
