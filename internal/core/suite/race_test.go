package suite

import (
	"sync"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/opt"
	"qtrtest/internal/rules"
)

// TestEdgeCosterSingleFlightConcurrent hammers the edge-cost cache from many
// goroutines requesting the same small set of edges. The single-flight
// contract has two halves: every goroutine observes the same cost for an
// edge, and the optimizer runs exactly once per distinct edge no matter how
// the requests interleave — the exact-call accounting Figure 14 depends on.
// Run under -race this also checks the cache's map and entries for data races.
func TestEdgeCosterSingleFlightConcurrent(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1.0, Seed: 42})
	o := opt.New(rules.DefaultRegistry(), cat)
	targets := SingletonTargets([]rules.ID{1, 4, 5, 9})
	g, err := Generate(o, targets, GenConfig{K: 2, Seed: 7, ExtraOps: 2, Workers: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	g.coster = newEdgeCoster(o)

	// Collect every (query, target) edge of the graph.
	type edge struct {
		q *Query
		t Target
	}
	var edges []edge
	for ti, qs := range g.Adj {
		for _, qi := range qs {
			edges = append(edges, edge{q: g.Queries[qi], t: g.Targets[ti]})
		}
	}
	if len(edges) == 0 {
		t.Fatal("graph has no edges")
	}

	// First pass, sequential: the reference costs.
	want := make([]float64, len(edges))
	for i, e := range edges {
		want[i] = g.coster.cost(e.q, e.t)
	}
	calls := g.OptimizerCalls()
	if calls == 0 || calls > len(edges) {
		t.Fatalf("sequential pass made %d optimizer calls for %d edges", calls, len(edges))
	}

	// Concurrent pass over a fresh cache: every edge requested by every
	// goroutine, yet the call counter must land exactly where the
	// sequential pass did.
	g.coster = newEdgeCoster(o)
	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range edges {
				// Stagger start positions so goroutines collide on
				// different entries first.
				j := (i + w*len(edges)/goroutines) % len(edges)
				if got := g.coster.cost(edges[j].q, edges[j].t); got != want[j] {
					t.Errorf("edge %d: concurrent cost %v, sequential cost %v", j, got, want[j])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := g.OptimizerCalls(); got != calls {
		t.Errorf("concurrent pass made %d optimizer calls, sequential made %d (single-flight violated)", got, calls)
	}
}
