package suite

import (
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/opt"
	"qtrtest/internal/rules"
)

func explorationIDs(n int) []rules.ID {
	var ids []rules.ID
	for _, r := range rules.ExplorationRules() {
		ids = append(ids, r.ID())
		if len(ids) == n {
			break
		}
	}
	return ids
}

func newGraph(t *testing.T, targets []Target, k int) (*Graph, *opt.Optimizer, *catalog.Catalog) {
	t.Helper()
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	o := opt.New(rules.DefaultRegistry(), cat)
	g, err := Generate(o, targets, GenConfig{K: k, Seed: 99, ExtraOps: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g, o, cat
}

func TestSingletonCompression(t *testing.T) {
	targets := SingletonTargets(explorationIDs(8))
	g, _, _ := newGraph(t, targets, 3)

	base, err := g.Baseline()
	if err != nil {
		t.Fatalf("Baseline: %v", err)
	}
	smc, err := g.SetMultiCover()
	if err != nil {
		t.Fatalf("SetMultiCover: %v", err)
	}
	topk, err := g.TopKIndependent()
	if err != nil {
		t.Fatalf("TopKIndependent: %v", err)
	}
	for _, sol := range []*Solution{base, smc, topk} {
		if err := g.Validate(sol); err != nil {
			t.Errorf("%s: invalid solution: %v", sol.Name, err)
		}
		if sol.TotalCost <= 0 {
			t.Errorf("%s: nonpositive total cost %f", sol.Name, sol.TotalCost)
		}
	}
	if topk.TotalCost > base.TotalCost {
		t.Errorf("TOPK (%f) should not exceed BASELINE (%f) for singletons", topk.TotalCost, base.TotalCost)
	}
	if smc.TotalCost > base.TotalCost*2 {
		t.Errorf("SMC (%f) unexpectedly far above BASELINE (%f)", smc.TotalCost, base.TotalCost)
	}
}

// TestTopKMonotonicMatchesTopK: on a rule-pair graph the pruned TOPK returns
// the exhaustive reference's solution and prices fewer edges to find it.
func TestTopKMonotonicMatchesTopK(t *testing.T) {
	targets := PairTargets(explorationIDs(5))
	g, _, _ := newGraph(t, targets, 2)

	pruned, err := g.TopKIndependent()
	if err != nil {
		t.Fatalf("TopKIndependent: %v", err)
	}
	if err := g.Validate(pruned); err != nil {
		t.Fatalf("pruned solution invalid: %v", err)
	}
	full, err := exhaustiveTopK(g)
	if err != nil {
		t.Fatalf("exhaustive reference: %v", err)
	}
	assertSameSolution(t, "pairs", full, pruned)
	if edges := g.OptimizerCalls(); pruned.OptimizerCalls >= edges {
		t.Errorf("monotonicity saved no optimizer calls: %d of %d edges priced", pruned.OptimizerCalls, edges)
	}
}

func TestCorrectnessRunCleanRules(t *testing.T) {
	targets := SingletonTargets(explorationIDs(6))
	g, o, cat := newGraph(t, targets, 2)
	sol, err := g.TopKIndependent()
	if err != nil {
		t.Fatalf("TopKIndependent: %v", err)
	}
	rep, err := g.Run(sol, o, cat)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Mismatches) != 0 {
		for _, m := range rep.Mismatches {
			t.Errorf("correctness bug flagged for healthy rules: target %s query %q: %s",
				m.Target, m.Query.SQL, m.Detail)
		}
	}
	if rep.PlanExecutions == 0 {
		t.Error("no plans executed")
	}
}

func TestMatchingNoShare(t *testing.T) {
	targets := SingletonTargets(explorationIDs(5))
	g, _, _ := newGraph(t, targets, 2)
	sol, err := g.MatchingNoShare()
	if err != nil {
		t.Fatalf("MatchingNoShare: %v", err)
	}
	// Every query used exactly once.
	used := make(map[int]bool)
	for _, a := range sol.Assignments {
		if used[a.Query] {
			t.Fatalf("query %d assigned twice in no-share matching", a.Query)
		}
		used[a.Query] = true
	}
	if len(used) != len(g.Queries) {
		t.Fatalf("matching used %d of %d queries", len(used), len(g.Queries))
	}
	if err := g.Validate(sol); err != nil {
		t.Fatalf("matching solution invalid: %v", err)
	}
	base, err := g.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if sol.TotalCost > base.TotalCost+1e-6 {
		t.Errorf("optimal no-share matching (%f) exceeds BASELINE (%f)", sol.TotalCost, base.TotalCost)
	}
}

func TestTargetHelpers(t *testing.T) {
	tg := Target{Rules: []rules.ID{3, 7}}
	if tg.String() != "{3,7}" {
		t.Errorf("String = %s", tg.String())
	}
	if !tg.CoveredBy(rules.NewSet(3, 7, 9)) || tg.CoveredBy(rules.NewSet(3)) {
		t.Error("CoveredBy wrong")
	}
	pairs := PairTargets([]rules.ID{1, 2, 3})
	if len(pairs) != 3 {
		t.Errorf("PairTargets = %d", len(pairs))
	}
	if len(SingletonTargets([]rules.ID{1, 2})) != 2 {
		t.Error("SingletonTargets wrong")
	}
}

func TestRunSkipsIdenticalPlans(t *testing.T) {
	// Rules that rarely change the final plan (e.g. exercised-but-not-
	// relevant ones) yield identical Plan(q,¬r): the runner must skip those
	// executions (paper footnote 1).
	targets := SingletonTargets(explorationIDs(4))
	g, o, cat := newGraph(t, targets, 2)
	sol, err := g.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(sol, o, cat)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SkippedIdentical == 0 {
		t.Log("no identical plans this run (acceptable, but unusual)")
	}
	if rep.PlanExecutions+rep.SkippedIdentical < len(sol.Assignments) {
		t.Errorf("executions (%d) + skipped (%d) < assignments (%d)",
			rep.PlanExecutions, rep.SkippedIdentical, len(sol.Assignments))
	}
}

// TestRunBackendPristine: with the reference engine as the cross-check
// backend, Run replays every distinct query of the solution exactly once, and
// on the pristine rules no replay disagrees.
func TestRunBackendPristine(t *testing.T) {
	g, o, cat := newGraph(t, SingletonTargets(explorationIDs(4)), 2)
	sol, err := g.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetBackend("ref"); err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(sol, o, cat)
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[int]bool)
	for _, a := range sol.Assignments {
		distinct[a.Query] = true
	}
	if rep.BackendChecks != len(distinct) {
		t.Errorf("%d backend checks, want one per distinct query (%d)", rep.BackendChecks, len(distinct))
	}
	for _, d := range rep.BackendDisagreements {
		t.Errorf("pristine rules disagree with the reference engine: %s\n%s", d.Detail, d.Query.SQL)
	}
}

func TestGenerateProducesDistinctQueriesPerTarget(t *testing.T) {
	targets := SingletonTargets(explorationIDs(5))
	g, _, _ := newGraph(t, targets, 3)
	for ti := range g.Targets {
		seen := map[string]bool{}
		for _, q := range g.Queries {
			if q.GeneratedFor != ti {
				continue
			}
			if seen[q.SQL] {
				t.Fatalf("target %d has duplicate query: %s", ti, q.SQL)
			}
			seen[q.SQL] = true
		}
		if len(seen) != g.K {
			t.Fatalf("target %d owns %d distinct queries, want %d", ti, len(seen), g.K)
		}
	}
}

// TestEdgeCostCachedAcrossAlgorithms: an edge is optimized once per graph.
// Re-running an algorithm costs nothing, and neither does an algorithm whose
// edges another has already priced — MatchingNoShare prices every edge of a
// singleton graph, so after it every algorithm is free.
func TestEdgeCostCachedAcrossAlgorithms(t *testing.T) {
	targets := SingletonTargets(explorationIDs(4))
	g, _, _ := newGraph(t, targets, 2)
	algos := []struct {
		name string
		run  func() (*Solution, error)
	}{
		{"TOPK", g.TopKIndependent},
		{"SMC", g.SetMultiCover},
		{"BASELINE", g.Baseline},
		{"MATCHING", g.MatchingNoShare},
	}
	for _, a := range algos {
		if _, err := a.run(); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		calls := g.OptimizerCalls()
		sol, err := a.run()
		if err != nil {
			t.Fatalf("%s again: %v", a.name, err)
		}
		if sol.OptimizerCalls != 0 || g.OptimizerCalls() != calls {
			t.Errorf("%s recomputed its own cached edges: %d -> %d", a.name, calls, g.OptimizerCalls())
		}
	}
	calls := g.OptimizerCalls()
	edges := 0
	for _, adj := range g.Adj {
		edges += len(adj)
	}
	if calls != edges {
		t.Fatalf("%d optimizer calls for %d edges after MatchingNoShare priced them all", calls, edges)
	}
	for _, a := range algos {
		if _, err := a.run(); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
	}
	if g.OptimizerCalls() != calls {
		t.Errorf("algorithms recomputed cached edges: %d -> %d", calls, g.OptimizerCalls())
	}
}
