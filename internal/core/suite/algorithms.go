package suite

import (
	"fmt"
	"sort"

	"qtrtest/internal/par"
)

// flatten concatenates per-target assignment slices in target order; the
// parallel algorithms write into index-addressed slots, so the flattened
// order matches what a sequential run would have produced.
func flatten(perTarget [][]Assignment) []Assignment {
	n := 0
	for _, a := range perTarget {
		n += len(a)
	}
	out := make([]Assignment, 0, n)
	for _, a := range perTarget {
		out = append(out, a...)
	}
	return out
}

// Baseline is the BASELINE method of §2.3: each target executes exactly the
// k queries generated for it, and nothing is shared — the cost is
// Σ_i Σ_{q∈TS_i} [Cost(q) + Cost(q,¬r_i)].
func (g *Graph) Baseline() (*Solution, error) {
	before := g.coster.calls.Load()
	perTarget := make([][]Assignment, len(g.Targets))
	err := par.ForEachErr(g.workers, len(g.Targets), func(ti int) error {
		t := g.Targets[ti]
		var asg []Assignment
		for _, q := range g.Queries {
			if q.GeneratedFor != ti {
				continue
			}
			asg = append(asg, Assignment{Target: ti, Query: q.Idx, EdgeCost: g.coster.cost(q, t)})
		}
		if len(asg) != g.K {
			return fmt.Errorf("suite: target %s owns %d generated queries, want %d", t, len(asg), g.K)
		}
		perTarget[ti] = asg
		return nil
	})
	if err != nil {
		return nil, err
	}
	sol := g.finalize("BASELINE", flatten(perTarget), false)
	sol.OptimizerCalls = int(g.coster.calls.Load() - before)
	return sol, nil
}

// SetMultiCover is the greedy algorithm of Figure 5, adapted from the
// constrained set multicover approximation [19]: repeatedly pick the query
// with the highest benefit (remaining targets covered per unit of node
// cost) until every target is covered k times. Edge costs are ignored
// during selection — the experiments show where that hurts.
func (g *Graph) SetMultiCover() (*Solution, error) {
	before := g.coster.calls.Load()
	remaining := make([]int, len(g.Targets)) // coverage still needed
	for ti := range g.Targets {
		remaining[ti] = g.K
	}
	need := len(g.Targets) * g.K
	picked := make([]bool, len(g.Queries))
	assignedTo := make([][]int, len(g.Queries)) // query -> targets it covers on pick
	coverable := make([][]int, len(g.Queries))  // query -> targets with an edge
	for ti := range g.Targets {
		for _, qi := range g.Adj[ti] {
			coverable[qi] = append(coverable[qi], ti)
		}
	}
	for need > 0 {
		bestQ := -1
		bestBenefit := -1.0
		for qi, q := range g.Queries {
			if picked[qi] {
				continue
			}
			covers := 0
			for _, ti := range coverable[qi] {
				if remaining[ti] > 0 {
					covers++
				}
			}
			if covers == 0 {
				continue
			}
			cost := q.Cost
			if cost <= 0 {
				cost = 1e-9
			}
			benefit := float64(covers) / cost
			if benefit > bestBenefit {
				bestBenefit = benefit
				bestQ = qi
			}
		}
		if bestQ < 0 {
			return nil, fmt.Errorf("suite: set multicover is infeasible: %d coverage slots unfilled", need)
		}
		picked[bestQ] = true
		for _, ti := range coverable[bestQ] {
			if remaining[ti] > 0 {
				remaining[ti]--
				need--
				assignedTo[bestQ] = append(assignedTo[bestQ], ti)
			}
		}
	}
	// The greedy selection above consults only node costs; the edge costs of
	// the chosen assignments are independent of one another, so they are
	// materialized on the worker pool.
	type pick struct{ qi, ti int }
	var picks []pick
	for qi, targets := range assignedTo {
		for _, ti := range targets {
			picks = append(picks, pick{qi: qi, ti: ti})
		}
	}
	asg := make([]Assignment, len(picks))
	par.ForEach(g.workers, len(picks), func(i int) {
		p := picks[i]
		asg[i] = Assignment{
			Target: p.ti, Query: p.qi,
			EdgeCost: g.coster.cost(g.Queries[p.qi], g.Targets[p.ti]),
		}
	})
	sol := g.finalize("SMC", asg, true)
	sol.OptimizerCalls = int(g.coster.calls.Load() - before)
	return sol, nil
}

// TopKIndependent is the algorithm of Figure 6: independently for every
// target, pick the k edges with the lowest Cost(q,¬R), ties broken by query
// index. It is a factor-2 approximation of the optimal compression (§5.2).
// It prices only the edges that can be among those k (§5.3.1): since
// Cost(q) ≤ Cost(q,¬R) — the edge coster clamps to it — scanning a target's
// candidates in increasing (Cost(q), q) order lets it stop as soon as the
// next node cost exceeds the k-th best edge so far. Targets run on the worker
// pool; within a target the scan stays sequential because each decision
// (price or stop) depends on the k-th best edge seen so far — that keeps the
// set of optimizer calls, and hence Figure 14's counts, identical for every
// worker count.
func (g *Graph) TopKIndependent() (*Solution, error) {
	before := g.coster.calls.Load()
	perTarget := make([][]Assignment, len(g.Targets))
	err := par.ForEachErr(g.workers, len(g.Targets), func(ti int) error {
		t := g.Targets[ti]
		cand := append([]int(nil), g.Adj[ti]...)
		if len(cand) < g.K {
			return fmt.Errorf("suite: target %s has only %d covering queries, want %d", t, len(cand), g.K)
		}
		sort.Slice(cand, func(i, j int) bool {
			ci, cj := g.Queries[cand[i]].Cost, g.Queries[cand[j]].Cost
			if ci != cj {
				return ci < cj
			}
			return cand[i] < cand[j]
		})
		var best []Assignment // the k cheapest edges so far, by (cost, query)
		for _, qi := range cand {
			if len(best) == g.K && g.Queries[qi].Cost > best[g.K-1].EdgeCost {
				// Every remaining candidate has node cost (and therefore
				// edge cost) strictly above the current k-th best edge; no
				// remaining edge can enter the top k.
				break
			}
			best = append(best, Assignment{Target: ti, Query: qi, EdgeCost: g.coster.cost(g.Queries[qi], t)})
			sort.Slice(best, func(i, j int) bool {
				if best[i].EdgeCost != best[j].EdgeCost {
					return best[i].EdgeCost < best[j].EdgeCost
				}
				return best[i].Query < best[j].Query
			})
			best = best[:min(len(best), g.K)]
		}
		perTarget[ti] = best
		return nil
	})
	if err != nil {
		return nil, err
	}
	sol := g.finalize("TOPK", flatten(perTarget), true)
	sol.OptimizerCalls = int(g.coster.calls.Load() - before)
	return sol, nil
}
