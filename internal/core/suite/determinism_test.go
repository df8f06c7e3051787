package suite

import (
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/opt"
	"qtrtest/internal/rules"
)

// suiteRun captures everything a campaign produces that the determinism
// guarantee covers: the generated suite, the solutions of every compression
// algorithm, their costs and their optimizer-call accounting.
type suiteRun struct {
	sqls      []string
	ruleSets  [][]rules.ID
	planHash  []string
	solutions map[string]*Solution
	calls     map[string]int
}

func runCampaign(t *testing.T, cat *catalog.Catalog, targets []Target, k int, workers int) *suiteRun {
	t.Helper()
	o := opt.New(rules.DefaultRegistry(), cat)
	g, err := Generate(o, targets, GenConfig{K: k, Seed: 7, ExtraOps: 2, Workers: workers})
	if err != nil {
		t.Fatalf("Generate(workers=%d): %v", workers, err)
	}
	run := &suiteRun{solutions: make(map[string]*Solution), calls: make(map[string]int)}
	for _, q := range g.Queries {
		run.sqls = append(run.sqls, q.SQL)
		run.ruleSets = append(run.ruleSets, q.RuleSet.Sorted())
		run.planHash = append(run.planHash, q.BasePlan.Hash())
	}
	for _, algo := range []struct {
		name string
		fn   func() (*Solution, error)
	}{
		{"SMC", g.SetMultiCover},
		{"TOPK", g.TopKIndependent},
	} {
		sol, err := algo.fn()
		if err != nil {
			t.Fatalf("%s(workers=%d): %v", algo.name, workers, err)
		}
		run.solutions[algo.name] = sol
		run.calls[algo.name] = sol.OptimizerCalls
	}
	return run
}

func assertRunsIdentical(t *testing.T, label string, seq, par *suiteRun) {
	t.Helper()
	if len(seq.sqls) != len(par.sqls) {
		t.Fatalf("%s: suite sizes differ: %d vs %d", label, len(seq.sqls), len(par.sqls))
	}
	for i := range seq.sqls {
		if seq.sqls[i] != par.sqls[i] {
			t.Fatalf("%s: query %d differs:\n  seq: %s\n  par: %s", label, i, seq.sqls[i], par.sqls[i])
		}
		if seq.planHash[i] != par.planHash[i] {
			t.Errorf("%s: base plan of query %d differs", label, i)
		}
		a, b := seq.ruleSets[i], par.ruleSets[i]
		if len(a) != len(b) {
			t.Fatalf("%s: RuleSet of query %d differs: %v vs %v", label, i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: RuleSet of query %d differs: %v vs %v", label, i, a, b)
			}
		}
	}
	for name, ssol := range seq.solutions {
		psol := par.solutions[name]
		assertSameSolution(t, label+"/"+name, ssol, psol)
		if seq.calls[name] != par.calls[name] {
			t.Errorf("%s/%s: optimizer calls differ: %d vs %d", label, name, seq.calls[name], par.calls[name])
		}
	}
}

// TestParallelCampaignDeterministicTPCH asserts the engine's hard
// constraint: with the same seed, a sequential run (workers=1) and a
// parallel run (workers=8) of suite generation + SMC + TOPK produce identical suites, Solution assignments, costs and OptimizerCalls
// on the TPC-H schema.
func TestParallelCampaignDeterministicTPCH(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	targets := SingletonTargets(explorationIDs(6))
	seq := runCampaign(t, cat, targets, 3, 1)
	par := runCampaign(t, cat, targets, 3, 8)
	assertRunsIdentical(t, "tpch/singletons", seq, par)
}

// TestParallelCampaignDeterministicTPCHPairs covers rule-pair targets, where
// the edge cache sees the heaviest concurrent sharing.
func TestParallelCampaignDeterministicTPCHPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("pair campaign is slow")
	}
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	targets := PairTargets(explorationIDs(5))
	seq := runCampaign(t, cat, targets, 2, 1)
	par := runCampaign(t, cat, targets, 2, 8)
	assertRunsIdentical(t, "tpch/pairs", seq, par)
}

// TestParallelCampaignDeterministicStar repeats the guarantee on the star
// schema (§6.1's "other databases with different schemas").
func TestParallelCampaignDeterministicStar(t *testing.T) {
	cat := catalog.LoadStar(catalog.StarConfig{ScaleRows: 1.0, Seed: 42})
	targets := SingletonTargets(explorationIDs(6))
	seq := runCampaign(t, cat, targets, 3, 1)
	par := runCampaign(t, cat, targets, 3, 8)
	assertRunsIdentical(t, "star/singletons", seq, par)
}

// TestParallelRunReportDeterministic checks the execution phase: validation
// reports (executions, skips, mismatch list) are identical for sequential
// and parallel runners, and the runner performs zero optimizer calls when
// base plans were captured at generation time.
func TestParallelRunReportDeterministic(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	o := opt.New(rules.DefaultRegistry(), cat)
	targets := SingletonTargets(explorationIDs(5))
	reports := make([]*Report, 2)
	for i, workers := range []int{1, 8} {
		g, err := Generate(o, targets, GenConfig{K: 2, Seed: 11, ExtraOps: 2, Workers: workers})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		sol, err := g.TopKIndependent()
		if err != nil {
			t.Fatalf("TopKIndependent: %v", err)
		}
		callsBefore := g.OptimizerCalls()
		rep, err := g.Run(sol, o, cat)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		if got := g.OptimizerCalls() - callsBefore; got != 0 {
			t.Errorf("Run(workers=%d) consumed %d optimizer calls, want 0", workers, got)
		}
		reports[i] = rep
	}
	seq, par := reports[0], reports[1]
	if seq.PlanExecutions != par.PlanExecutions || seq.SkippedIdentical != par.SkippedIdentical {
		t.Errorf("report counts differ: seq {%d,%d} vs par {%d,%d}",
			seq.PlanExecutions, seq.SkippedIdentical, par.PlanExecutions, par.SkippedIdentical)
	}
	if len(seq.Mismatches) != len(par.Mismatches) {
		t.Fatalf("mismatch counts differ: %d vs %d", len(seq.Mismatches), len(par.Mismatches))
	}
	for i := range seq.Mismatches {
		if seq.Mismatches[i].Query.SQL != par.Mismatches[i].Query.SQL {
			t.Errorf("mismatch %d differs", i)
		}
	}
}
