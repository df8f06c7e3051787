package qgen

import (
	"fmt"
	"math"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/par"
	"qtrtest/internal/rules"
)

// referencePatternPair is GeneratePatternPair as §3.2 states it, with no
// shortcut: every trial of the composition sweep is optimized, and among the
// hits the query with the fewest operators (the earliest, on a tie) wins.
// generateFromPatterns skips the optimization of a trial that could not win
// and is held to this.
func referencePatternPair(g *Generator, a, b rules.ID) (*Query, error) {
	pa, err := g.Pattern(a)
	if err != nil {
		return nil, err
	}
	pb, err := g.Pattern(b)
	if err != nil {
		return nil, err
	}
	candidates := ComposePatterns(pa, pb)
	target := []rules.ID{a, b}
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
		q, ok, err := g.tryTree(tree, md, target, math.MaxInt)
		if err != nil {
			return nil, err
		}
		if ok {
			q.Trials = trial
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
						ref.onOptimize = func() { refOptimized++ }
						gen.onOptimize = func() { optimized++ }
						want, wantErr := referencePatternPair(ref, ids[i], ids[j])
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
// per-target generators suite.Generate forks — to a ceiling of optimizer
// calls: 213 measured (700, one per trial, before trials that cannot win were
// skipped). The edge-costing half is
// TestSuitePairsOptimizerCallBudget in the root package, which cannot see
// this package's hook. Raise the ceiling only with the reason in the PR.
func TestSuitePairsGenerationBudget(t *testing.T) {
	const seed, k, ceiling = 42, 4, 220
	o := opt.New(rules.DefaultRegistry(), catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1.0, Seed: seed}))
	base, err := New(o, Config{Seed: seed, ExtraOps: 3})
	if err != nil {
		t.Fatal(err)
	}
	optimized, target := 0, 0
	base.onOptimize = func() { optimized++ }
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
				seen[q.SQL] = true
			}
		}
	}
	t.Logf("%d optimizations", optimized)
	if optimized > ceiling {
		t.Errorf("%d optimizations to generate the suite_pairs suite, budget %d", optimized, ceiling)
	}
}
