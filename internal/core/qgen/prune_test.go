package qgen

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/par"
	"qtrtest/internal/rules"
	"qtrtest/internal/sqlgen"
)

// referencePatternPair is GeneratePatternPair as §3.2 states it, with no
// shortcut: every trial of the composition sweep is rendered, bound and sent
// through a plain Optimize (counted in optimized), and among the hits the
// query with the fewest operators (the earliest, on a tie) wins.
// generateFromPatterns skips the optimization of a trial that could not win,
// explores a trial only until its targets have fired and costs only the query
// it keeps, and is held to this.
func referencePatternPair(g *Generator, a, b rules.ID, optimized *int) (*Query, error) {
	pa, err := g.Pattern(a)
	if err != nil {
		return nil, err
	}
	pb, err := g.Pattern(b)
	if err != nil {
		return nil, err
	}
	candidates := ComposePatterns(pa, pb)
	var best *Query
trials:
	for trial := 1; trial <= g.cfg.MaxTrials; trial++ {
		md := logical.NewMetadata(g.opt.Catalog())
		tree, err := g.instantiate(candidates[(trial-1)%len(candidates)], md)
		if err != nil {
			continue
		}
		for i := 0; i < g.cfg.ExtraOps; i++ {
			if tree, err = g.wrapRandomOp(tree, md); err != nil {
				continue trials
			}
		}
		sqlText, err := sqlgen.Generate(tree, md)
		if err != nil {
			return nil, err
		}
		bound, err := bind.BindSQL(sqlText, g.opt.Catalog())
		if err != nil {
			return nil, err
		}
		*optimized++
		res, err := g.opt.Optimize(bound.Tree, bound.MD, opt.Options{})
		if err != nil {
			return nil, err
		}
		res.Release()
		if res.RuleSet.Contains(a) && res.RuleSet.Contains(b) {
			q := &Query{SQL: sqlText, Tree: bound.Tree, RuleSet: res.RuleSet, Plan: res.Plan, Cost: res.Cost, Trials: trial}
			if best == nil || q.Tree.CountOps() < best.Tree.CountOps() {
				best = q
			}
		}
		if best != nil && trial >= len(candidates) {
			return best, nil
		}
	}
	if best != nil {
		return best, nil
	}
	return nil, ErrExhausted
}

func firstExplorationIDs(n int) []rules.ID {
	var ids []rules.ID
	for _, r := range rules.ExplorationRules()[:n] {
		ids = append(ids, r.ID())
	}
	return ids
}

// TestPatternPairMatchesUnprunedReference: for every pair of the first 8
// exploration rules, on both schemas, with and without padding operators,
// the generator returns the query the every-trial-optimized reference returns
// — same SQL, trial number, cost, RuleSet and plan — from the same RNG stream.
func TestPatternPairMatchesUnprunedReference(t *testing.T) {
	ids := firstExplorationIDs(8)
	for _, db := range []struct {
		name string
		cat  *catalog.Catalog
	}{
		{"tpch", catalog.LoadTPCH(catalog.DefaultTPCHConfig())},
		{"star", catalog.LoadStar(catalog.DefaultStarConfig())},
	} {
		o := opt.New(rules.DefaultRegistry(), db.cat)
		for _, extra := range []int{0, 3} {
			base, err := New(o, Config{MaxTrials: 256, ExtraOps: extra})
			if err != nil {
				t.Fatal(err)
			}
			optimized, refOptimized := 0, 0
			for i := 0; i < len(ids); i++ {
				for j := i + 1; j < len(ids); j++ {
					for seed := int64(1); seed <= 3; seed++ {
						label := fmt.Sprintf("%s extra=%d pair {%d,%d} seed %d", db.name, extra, ids[i], ids[j], seed)
						ref, gen := base.Fork(seed), base.Fork(seed)
						gen.onRelease = func(*opt.Result) { optimized++ }
						want, wantErr := referencePatternPair(ref, ids[i], ids[j], &refOptimized)
						got, err := gen.GeneratePatternPair(ids[i], ids[j])
						if (err != nil) != (wantErr != nil) {
							t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
						}
						if err != nil {
							continue
						}
						if got.SQL != want.SQL || got.Trials != want.Trials || got.Cost != want.Cost {
							t.Fatalf("%s:\n  got  trial %d cost %v: %s\n  want trial %d cost %v: %s",
								label, got.Trials, got.Cost, got.SQL, want.Trials, want.Cost, want.SQL)
						}
						if fmt.Sprint(got.RuleSet.Sorted()) != fmt.Sprint(want.RuleSet.Sorted()) {
							t.Errorf("%s: RuleSet %v, reference %v", label, got.RuleSet.Sorted(), want.RuleSet.Sorted())
						}
						if got.Plan.String() != want.Plan.String() {
							t.Errorf("%s: plan differs from the reference's:\n%s\n%s", label, got.Plan, want.Plan)
						}
					}
				}
			}
			t.Logf("%s extra=%d: %d optimizations, reference %d", db.name, extra, optimized, refOptimized)
			if optimized >= refOptimized {
				t.Errorf("%s extra=%d: %d optimizations, reference %d: the test no longer reaches the shortcut",
					db.name, extra, optimized, refOptimized)
			}
		}
	}
}

// TestSuitePairsGenerationBudget holds the generation half of the suite_pairs
// benchmark workload — 4 distinct queries for each of the 28 pairs of the
// first 8 exploration rules, TPC-H scale 1, seed 42, 3 padding operators, the
// per-target generators suite.Generate forks — to three budgets:
//   - optimizer calls: 212 measured (700, one per trial, before trials that
//     cannot win were skipped; 213 while PushGroupByBelowUnionAll fed itself
//     until MaxExprs);
//   - costings, one per query returned: a trial is explored only until its
//     targets fire, and only the query kept is explored to the end and costed
//     (every one of the 213 was costed before);
//   - memo expressions the trials' explorations built, 128 534 measured and
//     pinned as the ceiling (130 904 while PushGroupByBelowUnionAll fed itself
//     until MaxExprs, 205 080 when every trial was explored to its end).
//
// The edge-costing half is TestSuitePairsOptimizerCallBudget in the root
// package, which cannot see this package's hook. Raise a ceiling only with
// the reason in the PR.
func TestSuitePairsGenerationBudget(t *testing.T) {
	const seed, k, ceiling, exprCeiling = 42, 4, 220, 128534
	o := opt.New(rules.DefaultRegistry(), catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1.0, Seed: seed}))
	base, err := New(o, Config{Seed: seed, ExtraOps: 3})
	if err != nil {
		t.Fatal(err)
	}
	optimized, costed, exprs, returned, target := 0, 0, 0, 0, 0
	base.onRelease = func(res *opt.Result) {
		optimized++
		exprs += res.Memo.NumExprs()
		if res.Plan != nil {
			costed++
		}
	}
	ids := firstExplorationIDs(8)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			gen := base.Fork(par.DeriveSeed(seed, target))
			target++
			seen := make(map[string]bool)
			for len(seen) < k {
				q, err := gen.GeneratePatternPair(ids[i], ids[j])
				if err != nil {
					t.Fatalf("pair {%d,%d}: %v", ids[i], ids[j], err)
				}
				returned++
				seen[q.SQL] = true
			}
		}
	}
	t.Logf("%d optimizations, %d costed, %d queries returned, %d memo expressions", optimized, costed, returned, exprs)
	if optimized > ceiling {
		t.Errorf("%d optimizations to generate the suite_pairs suite, budget %d", optimized, ceiling)
	}
	if costed != returned {
		t.Errorf("%d costings for %d queries returned: only a query kept is costed", costed, returned)
	}
	if exprs > exprCeiling {
		t.Errorf("%d memo expressions explored to generate the suite_pairs suite, budget %d", exprs, exprCeiling)
	}
}

// TestGenerationTrialAllocBudget holds a generation trial that the size
// filter drops to committed ceilings, about 10 % above measured: instantiate
// a composition of the first two exploration rules' patterns (TPC-H scale 1,
// seed 42), pad it with 3 random operators, render it to SQL, lex, parse and
// bind it, and drop it as no smaller than the best hit. That is 488 of the
// 700 trials of the suite_pairs generation. Measured: 381 objects and 24.6 KB
// a trial, where fresh trial metadata cost 386 objects and 29.4 KB, and
// rendering through Sprintf, a fresh token buffer, heap scopes and fresh
// candidate lists 897 objects and 76.1 KB. Raise a ceiling only with the
// reason in the PR.
func TestGenerationTrialAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const trials, objCeiling, byteCeiling = 256, 420, 27500
	o := opt.New(rules.DefaultRegistry(), catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1.0, Seed: 42}))
	g, err := New(o, Config{Seed: 42, ExtraOps: 3, MaxTrials: trials})
	if err != nil {
		t.Fatal(err)
	}
	ids := firstExplorationIDs(2)
	pa, _ := g.Pattern(ids[0])
	pb, _ := g.Pattern(ids[1])
	comps := ComposePatterns(pa, pb)
	dropped := 0
	sweep := func() {
		err := g.sweep(comps, g.cfg.ExtraOps, func(_ int, tree *logical.Expr, md *logical.Metadata) (bool, error) {
			q, err := g.tryTree(tree, md, ids, 1)
			if q == nil && err == nil {
				dropped++
			}
			return false, err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	objects := testing.AllocsPerRun(2, sweep) / trials
	bytes := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sweep()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/trials)
	}
	t.Logf("%.0f objects, %.0f bytes per dropped trial", objects, bytes)
	if dropped != 6*trials {
		t.Fatalf("%d of %d trials dropped by the size filter; every one must be", dropped, 6*trials)
	}
	if objects > objCeiling {
		t.Errorf("%.0f objects per dropped trial, budget %d", objects, objCeiling)
	}
	if bytes > byteCeiling {
		t.Errorf("%.0f bytes per dropped trial, budget %d", bytes, byteCeiling)
	}
}
