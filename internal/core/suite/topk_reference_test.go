package suite

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/opt"
	"qtrtest/internal/rules"
)

// exhaustiveTopK is Figure 6 read literally — price every edge of every
// target, sort by (cost, query), keep k — and the reference TopKIndependent's
// pruned scan is held to. It is sequential: the edge coster is already safe
// under the pruned algorithm's worker pool, and a reference should be plain.
func exhaustiveTopK(g *Graph) (*Solution, error) {
	var asg []Assignment
	for ti, t := range g.Targets {
		if len(g.Adj[ti]) < g.K {
			return nil, fmt.Errorf("target %s has only %d covering queries, want %d", t, len(g.Adj[ti]), g.K)
		}
		edges := make([]Assignment, len(g.Adj[ti]))
		for i, qi := range g.Adj[ti] {
			edges[i] = Assignment{Target: ti, Query: qi, EdgeCost: g.coster.cost(g.Queries[qi], t)}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].EdgeCost != edges[j].EdgeCost {
				return edges[i].EdgeCost < edges[j].EdgeCost
			}
			return edges[i].Query < edges[j].Query
		})
		asg = append(asg, edges[:g.K]...)
	}
	return g.finalize("TOPK", asg, true), nil
}

// assertSameSolution fails unless the two solutions make the same assignments
// at the same edge costs and total.
func assertSameSolution(t *testing.T, label string, want, got *Solution) {
	t.Helper()
	if len(want.Assignments) != len(got.Assignments) {
		t.Fatalf("%s: %d assignments, reference has %d", label, len(got.Assignments), len(want.Assignments))
	}
	for i, w := range want.Assignments {
		a := got.Assignments[i]
		if a.Target != w.Target || a.Query != w.Query {
			t.Fatalf("%s: assignment %d is %+v, reference has %+v", label, i, a, w)
		}
		if a.EdgeCost != w.EdgeCost && !(math.IsInf(a.EdgeCost, 1) && math.IsInf(w.EdgeCost, 1)) {
			t.Fatalf("%s: edge cost %d is %v, reference has %v", label, i, a.EdgeCost, w.EdgeCost)
		}
	}
	if got.TotalCost != want.TotalCost {
		t.Errorf("%s: total cost %v, reference has %v", label, got.TotalCost, want.TotalCost)
	}
}

// minCoverage is the largest k every target of the graph can be given.
func minCoverage(g *Graph) int {
	k := len(g.Queries)
	for _, adj := range g.Adj {
		k = min(k, len(adj))
	}
	return k
}

// pricedEdges is the set of edges the graph's coster has been asked about.
func pricedEdges(g *Graph) map[edgeKey]bool {
	out := make(map[edgeKey]bool)
	for k := range g.coster.m {
		out[k] = true
	}
	return out
}

// TestTopKMatchesExhaustiveReference is the differential test behind the one
// TOPK: on real graphs — both schemas, singleton and pair targets — and for k
// from 1 up to the most the graph supports, the pruned scan returns exactly
// the exhaustive reference's solution, and prices the same edges whether the
// targets run on one worker or eight.
func TestTopKMatchesExhaustiveReference(t *testing.T) {
	for _, db := range []struct {
		name string
		cat  *catalog.Catalog
	}{
		{"tpch", catalog.LoadTPCH(catalog.DefaultTPCHConfig())},
		{"star", catalog.LoadStar(catalog.StarConfig{ScaleRows: 1.0, Seed: 42})},
	} {
		o := opt.New(rules.DefaultRegistry(), db.cat)
		for _, tg := range []struct {
			name    string
			targets []Target
		}{
			{"singletons", SingletonTargets(explorationIDs(6))},
			{"pairs", PairTargets(explorationIDs(4))},
		} {
			g, err := Generate(o, tg.targets, GenConfig{K: 3, Seed: 5, ExtraOps: 2})
			if err != nil {
				t.Fatalf("%s/%s: Generate: %v", db.name, tg.name, err)
			}
			for _, k := range []int{1, 3, minCoverage(g)} {
				label := fmt.Sprintf("%s/%s/k=%d", db.name, tg.name, k)
				g.K = k
				var priced [2]map[edgeKey]bool
				var pruned *Solution
				for i, workers := range []int{1, 8} {
					g.coster = newEdgeCoster(o)
					g.SetWorkers(workers)
					if pruned, err = g.TopKIndependent(); err != nil {
						t.Fatalf("%s: TopKIndependent(workers=%d): %v", label, workers, err)
					}
					if err := g.Validate(pruned); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					priced[i] = pricedEdges(g)
					if n := len(priced[i]); pruned.OptimizerCalls != n || g.OptimizerCalls() != n {
						t.Errorf("%s: %d edges priced, solution reports %d calls and the graph %d",
							label, n, pruned.OptimizerCalls, g.OptimizerCalls())
					}
				}
				if !reflect.DeepEqual(priced[0], priced[1]) {
					t.Errorf("%s: %d edges priced on 1 worker, %d (or others) on 8", label, len(priced[0]), len(priced[1]))
				}
				ref, err := exhaustiveTopK(g)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				assertSameSolution(t, label, ref, pruned)
			}
		}
	}
}
