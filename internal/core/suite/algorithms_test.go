package suite

import (
	"math"
	"reflect"
	"testing"

	"qtrtest/internal/logical"
	"qtrtest/internal/rules"
)

// syntheticGraph builds a Graph directly (no query generation) with
// prescribed node costs, coverage and edge costs — the bipartite abstraction
// of §4.1 in isolation, so algorithm behavior is testable exactly.
//
// edges[t][q] holds Cost(q,¬target_t), or a negative number for "no edge";
// like an optimized edge, a primed one never costs less than its query.
func syntheticGraph(t *testing.T, k int, nodeCosts []float64, edges [][]float64) *Graph {
	t.Helper()
	g := &Graph{K: k, coster: newEdgeCoster(nil)}
	for ti := range edges {
		g.Targets = append(g.Targets, Target{Rules: []rules.ID{rules.ID(ti + 1)}})
	}
	for qi, c := range nodeCosts {
		rs := make(rules.Set)
		for ti := range edges {
			if edges[ti][qi] >= 0 {
				rs.Add(rules.ID(ti + 1))
			}
		}
		q := &Query{
			Idx: qi, SQL: string(rune('a' + qi)),
			Tree:    &logical.Expr{Op: logical.OpGet},
			RuleSet: rs, Cost: c,
			GeneratedFor: -1,
		}
		g.Queries = append(g.Queries, q)
		for ti := range edges {
			if edges[ti][qi] >= 0 {
				g.coster.prime(q, g.Targets[ti], edges[ti][qi])
			}
		}
	}
	g.buildAdjacency()
	return g
}

// TestPaperExample1 reproduces Example 1 from §4.1 exactly: two rules, two
// queries, k=1. BASELINE costs 500; sharing q2 costs 340.
func TestPaperExample1(t *testing.T) {
	g := syntheticGraph(t, 1,
		[]float64{100, 100}, // Cost(q1)=Cost(q2)=100
		[][]float64{
			{180, 120}, // rule r1: edges to q1 (180) and q2 (120)
			{-1, 120},  // rule r2: edge to q2 only (120)
		})
	// Assign baseline ownership: q1 was generated for r1, q2 for r2.
	g.Queries[0].GeneratedFor = 0
	g.Queries[1].GeneratedFor = 1

	base, err := g.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalCost != 500 {
		t.Errorf("BASELINE = %f, paper says 500", base.TotalCost)
	}
	topk, err := g.TopKIndependent()
	if err != nil {
		t.Fatal(err)
	}
	if topk.TotalCost != 340 {
		t.Errorf("TOPK = %f, paper's shared strategy costs 340", topk.TotalCost)
	}
	smc, err := g.SetMultiCover()
	if err != nil {
		t.Fatal(err)
	}
	if smc.TotalCost != 340 {
		t.Errorf("SMC = %f, want 340 (q2 covers both rules at equal node cost)", smc.TotalCost)
	}
}

// TestSMCIgnoresEdgeCosts constructs the pathology of §6.2.2: a query cheap
// to optimize normally but catastrophically expensive with a rule disabled.
// SMC picks it anyway; TOPK avoids it.
func TestSMCIgnoresEdgeCosts(t *testing.T) {
	g := syntheticGraph(t, 1,
		[]float64{10, 50, 50},
		[][]float64{
			{100000, 60, -1}, // r1: the cheap query's edge explodes
			{100000, -1, 60},
		})
	g.Queries[0].GeneratedFor = 0
	g.Queries[1].GeneratedFor = 0 // unused by SMC/TOPK
	g.Queries[2].GeneratedFor = 1

	smc, err := g.SetMultiCover()
	if err != nil {
		t.Fatal(err)
	}
	topk, err := g.TopKIndependent()
	if err != nil {
		t.Fatal(err)
	}
	if smc.TotalCost <= topk.TotalCost {
		t.Errorf("expected SMC (%f) to lose to TOPK (%f) under hostile edge costs", smc.TotalCost, topk.TotalCost)
	}
	if topk.TotalCost != (50+60)+(50+60) {
		t.Errorf("TOPK = %f, want 220", topk.TotalCost)
	}
}

// TestTopKPicksKCheapestEdges checks exact selection with k=2.
func TestTopKPicksKCheapestEdges(t *testing.T) {
	g := syntheticGraph(t, 2,
		[]float64{10, 20, 11, 40},
		[][]float64{
			{15, 25, 12, 99},
		})
	sol, err := g.TopKIndependent()
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Assignments) != 2 {
		t.Fatalf("assignments = %d", len(sol.Assignments))
	}
	picked := map[int]bool{}
	for _, a := range sol.Assignments {
		picked[a.Query] = true
	}
	if !picked[0] || !picked[2] {
		t.Errorf("TOPK picked %v, want queries 0 and 2 (edges 15, 12)", sol.Assignments)
	}
	// Total: node costs 10+11 + edges 15+12 = 48.
	if sol.TotalCost != 48 {
		t.Errorf("TOPK total = %f, want 48", sol.TotalCost)
	}
}

// TestPrimeClampsToNodeCost: a synthetic edge below its node cost would break
// the invariant TOPK's cut-off rests on, so prime clamps like edge does.
func TestPrimeClampsToNodeCost(t *testing.T) {
	g := syntheticGraph(t, 1, []float64{30}, [][]float64{{12}})
	if got := g.EdgeCost(0, g.Targets[0]); got != 30 {
		t.Errorf("primed edge 12 under node cost 30 reads %v, want 30", got)
	}
}

// TestTopKCutoffTies pins the two ties of the cut-off. A candidate whose node
// cost equals the k-th best edge so far is still priced: its edge may equal
// that cost too and win on query index (q0 below, scanned after q1). And
// equal edge costs break by query index, as the reference's (cost, query)
// sort breaks them, not by scan order.
func TestTopKCutoffTies(t *testing.T) {
	for _, tc := range []struct {
		name      string
		k         int
		nodeCosts []float64
		edges     []float64
		want      []int
	}{
		{"node cost equal to the k-th best edge", 1, []float64{20, 10}, []float64{20, 20}, []int{0}},
		{"the same, k=2", 2, []float64{20, 10, 10}, []float64{20, 20, 15}, []int{0, 2}},
		{"equal edges, scan order opposite to index order", 2, []float64{12, 11, 10, 50}, []float64{20, 20, 20, 50}, []int{0, 1}},
		{"node cost above the k-th best edge", 1, []float64{21, 10}, []float64{21, 20}, []int{1}},
	} {
		g := syntheticGraph(t, tc.k, tc.nodeCosts, [][]float64{tc.edges})
		sol, err := g.TopKIndependent()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []int
		for _, a := range sol.Assignments {
			got = append(got, a.Query)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: TOPK picked queries %v, want %v", tc.name, got, tc.want)
		}
		ref, err := exhaustiveTopK(g)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSolution(t, tc.name, ref, sol)
	}
}

// TestMonotonicEqualsFullOnSynthetic checks that the pruned TOPK and the
// exhaustive reference agree on adversarial tie patterns.
func TestMonotonicEqualsFullOnSynthetic(t *testing.T) {
	g := syntheticGraph(t, 2,
		[]float64{10, 10, 10, 30, 30},
		[][]float64{
			{10, 10, 10, 30, 31},
			{12, 10, -1, 35, 30},
		})
	pruned, err := g.TopKIndependent()
	if err != nil {
		t.Fatal(err)
	}
	full, err := exhaustiveTopK(g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, "synthetic ties", full, pruned)
}

// TestInsufficientCoverageErrors: a target with fewer than k covering
// queries must fail loudly, not silently under-validate.
func TestInsufficientCoverageErrors(t *testing.T) {
	g := syntheticGraph(t, 2,
		[]float64{10},
		[][]float64{{15}})
	if _, err := g.TopKIndependent(); err == nil {
		t.Error("TopK must error when coverage < k")
	}
}

// TestValidateRejectsBadSolutions exercises the §4.1 invariant checks.
func TestValidateRejectsBadSolutions(t *testing.T) {
	g := syntheticGraph(t, 1,
		[]float64{10, 20},
		[][]float64{{15, 25}})
	ok := &Solution{Assignments: []Assignment{{Target: 0, Query: 0, EdgeCost: 15}}}
	if err := g.Validate(ok); err != nil {
		t.Errorf("valid solution rejected: %v", err)
	}
	dup := &Solution{Assignments: []Assignment{
		{Target: 0, Query: 0}, {Target: 0, Query: 0},
	}}
	if err := g.Validate(dup); err == nil {
		t.Error("duplicate assignment accepted")
	}
	short := &Solution{}
	if err := g.Validate(short); err == nil {
		t.Error("under-covered solution accepted")
	}
	g2 := syntheticGraph(t, 1, []float64{10}, [][]float64{{-1}})
	bad := &Solution{Assignments: []Assignment{{Target: 0, Query: 0}}}
	if err := g2.Validate(bad); err == nil {
		t.Error("non-edge assignment accepted")
	}
}

// TestMatchingOptimalOnSynthetic verifies the Hungarian solver finds the
// optimum on a case where greedy per-target choices are suboptimal.
func TestMatchingOptimalOnSynthetic(t *testing.T) {
	// Two targets, k=1, two queries; both cover both targets.
	// q0: node 10; edges r1:10, r2:100
	// q1: node 10; edges r1:11, r2:20
	// Greedy for r1 takes q0 (cheapest edge), forcing q1 onto r2: 10+10+10+20=50.
	// Alternative: q1→r1, q0→r2: 10+11+10+100=131. Optimum is 50.
	g := syntheticGraph(t, 1,
		[]float64{10, 10},
		[][]float64{
			{10, 11},
			{100, 20},
		})
	sol, err := g.MatchingNoShare()
	if err != nil {
		t.Fatal(err)
	}
	if sol.TotalCost != 50 {
		t.Errorf("matching total = %f, want 50", sol.TotalCost)
	}
}

// TestEdgeCostClampInvariant: the coster enforces Cost(q) <= Cost(q,¬R),
// which TopKIndependent's cut-off depends on.
func TestEdgeCostClampInvariant(t *testing.T) {
	// Exercised through the real optimizer: every edge of a small real
	// graph satisfies the invariant.
	targets := SingletonTargets(explorationIDs(5))
	g, _, _ := newGraph(t, targets, 2)
	for ti, t2 := range g.Targets {
		for _, qi := range g.Adj[ti] {
			ec := g.EdgeCost(qi, t2)
			if !math.IsInf(ec, 1) && ec < g.Queries[qi].Cost-1e-9 {
				t.Fatalf("edge cost %f below node cost %f", ec, g.Queries[qi].Cost)
			}
		}
	}
}
