package qgen

import (
	"errors"
	"math/rand"

	"qtrtest/internal/logical"
)

// WeightedOps is the operator vocabulary of the stochastic tree generator, in
// fixed order — Weights is stored positionally against this slice, so
// selection is deterministic for a given seed. It includes Sort and Limit,
// which the paper's RANDOM baseline (randomWeights) gives weight zero:
// fuzzing wants order- and cardinality-sensitive shapes in the population,
// because sort-direction and limit-boundary faults are invisible without
// them.
var WeightedOps = []logical.Op{
	logical.OpSelect, logical.OpProject,
	logical.OpJoin, logical.OpLeftJoin,
	logical.OpSemiJoin, logical.OpAntiJoin,
	logical.OpGroupBy, logical.OpUnionAll,
	logical.OpSort, logical.OpLimit,
}

// Weights assigns a relative selection weight to each operator of
// WeightedOps. The zero value is unusable; start from DefaultWeights.
type Weights struct {
	w []int
}

// randomWeights is the operator distribution of the RANDOM baseline [1][17],
// which GenerateRandom and wrapRandomOp draw from: selections and inner joins
// twice as likely as the rest, no Sort, no Limit. One draw is one Intn(10).
// Shared and never mutated.
var randomWeights = &Weights{w: []int{2, 1, 2, 1, 1, 1, 1, 1, 0, 0}}

// DefaultWeights returns the fuzzer's starting operator distribution, roughly
// matching the RANDOM baseline's emphasis on selections and joins.
func DefaultWeights() *Weights {
	return &Weights{w: []int{
		3, // Select
		2, // Project
		3, // Join
		2, // LeftJoin
		1, // SemiJoin
		1, // AntiJoin
		2, // GroupBy
		2, // UnionAll
		2, // Sort
		2, // Limit
	}}
}

// Clone returns an independent copy.
func (w *Weights) Clone() *Weights {
	return &Weights{w: append([]int(nil), w.w...)}
}

// Weight returns the current weight of op (0 if op is not in WeightedOps).
func (w *Weights) Weight(op logical.Op) int {
	for i, o := range WeightedOps {
		if o == op {
			return w.w[i]
		}
	}
	return 0
}

// Boost raises op's weight by delta, saturating at max. Operators outside
// WeightedOps are ignored.
func (w *Weights) Boost(op logical.Op, delta, max int) {
	for i, o := range WeightedOps {
		if o != op {
			continue
		}
		w.w[i] += delta
		if w.w[i] > max {
			w.w[i] = max
		}
		return
	}
}

// pick draws one operator with probability proportional to its weight.
func (w *Weights) pick(rng *rand.Rand) logical.Op {
	total := 0
	for _, v := range w.w {
		total += v
	}
	if total <= 0 {
		return WeightedOps[rng.Intn(len(WeightedOps))]
	}
	n := rng.Intn(total)
	for i, v := range w.w {
		if n < v {
			return WeightedOps[i]
		}
		n -= v
	}
	return WeightedOps[len(WeightedOps)-1]
}

// RandomTreeWeighted builds a stochastic logical tree of roughly budget
// operators, drawing operators from the weighted vocabulary. It is the one
// stochastic tree generator: RANDOM generation passes fixed weights, the
// fuzzer adjusts its weights between generations (plan-shape coverage
// steering), and the instantiation machinery — buildOp and its argument
// heuristics — is shared with the PATTERN generator. The caller may share one
// *Weights across concurrent generators: selection only reads it.
func (g *Generator) RandomTreeWeighted(md *logical.Metadata, budget int, w *Weights) (*logical.Expr, error) {
	return g.randomTreeWeighted(md, budget, w, true)
}

// randomTreeWeighted recurses with a root flag: OpLimit is only allowed at
// the root of the whole query. An interior LIMIT has no defining order, so
// which rows survive it is a plan property, not a query property — two
// correct plans can legitimately disagree on everything computed above it,
// which would turn both oracles into false-positive generators. At the root
// the comparator's limit-aware verdict logic handles the ambiguity instead.
func (g *Generator) randomTreeWeighted(md *logical.Metadata, budget int, w *Weights, root bool) (*logical.Expr, error) {
	if budget <= 1 {
		return g.randomLeaf(md)
	}
	for attempt := 0; attempt < 8; attempt++ {
		op := w.pick(g.rng)
		if op == logical.OpLimit && !root {
			continue
		}
		var kids []*logical.Expr
		var err error
		if op.Arity() == 2 {
			lb := 1 + g.rng.Intn(budget-1)
			var l, r *logical.Expr
			l, err = g.randomTreeWeighted(md, lb, w, false)
			if err != nil {
				return nil, err
			}
			r, err = g.randomTreeWeighted(md, budget-1-lb, w, false)
			if err != nil {
				return nil, err
			}
			kids = []*logical.Expr{l, r}
		} else {
			var c *logical.Expr
			c, err = g.randomTreeWeighted(md, budget-1, w, false)
			if err != nil {
				return nil, err
			}
			kids = []*logical.Expr{c}
		}
		tree, err := g.buildOp(op, kids, md)
		if err == nil {
			return tree, nil
		}
		if !errors.Is(err, errCannotInstantiate) {
			return nil, err
		}
	}
	return g.randomLeaf(md)
}
