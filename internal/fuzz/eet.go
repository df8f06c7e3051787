package fuzz

import (
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// EET wiring: each scalar.EETRewrites catalog entry becomes a first-class
// metamorphic Rewrite. Unlike the tree-level rewrites, an EET rewrite has a
// choice to make — which predicate site of which operator to rewrite — and
// makes it deterministically from the query's derived seed: all applicable
// (operator, expression-site) candidates are enumerated in tree pre-order,
// and the seed picks exactly one. One site per query keeps reproducers
// minimal (the shrinker replays the same seed, so the choice is stable as
// the query shrinks) while the campaign as a whole, steered across many
// queries and seeds, covers the whole candidate space.

// eetRewrites returns one campaign Rewrite per scalar EET catalog entry, in
// catalog order.
func eetRewrites() []Rewrite {
	catalog := scalar.EETRewrites()
	out := make([]Rewrite, len(catalog))
	for i, er := range catalog {
		er := er
		out[i] = Rewrite{
			Name: er.Name,
			Apply: func(tree *logical.Expr, md *logical.Metadata, seed int64) *logical.Expr {
				return applyEETRewrite(er, tree, md, seed)
			},
		}
	}
	return out
}

// eetCandidate is one applicable (operator, expression-site) pair on a
// cloned tree: set installs a rewritten expression at that operator slot.
type eetCandidate struct {
	site scalar.Site
	set  func(scalar.Expr)
}

// applyEETRewrite clones tree, enumerates every expression site of every
// predicate-bearing slot (Select filters, join On conditions, Project
// expressions) where er applies, picks the seed-th candidate, and splices
// the rewrite in. Returns nil when no site applies. Clone shares scalar
// expressions with the original, but Site.Rebuild is copy-on-write, so the
// original tree's expressions are never mutated.
func applyEETRewrite(er scalar.EETRewrite, tree *logical.Expr, md *logical.Metadata, seed int64) *logical.Expr {
	env := md.TypeEnv()
	out := tree.Clone()
	var cands []eetCandidate
	collect := func(e scalar.Expr, set func(scalar.Expr)) {
		if e == nil {
			return
		}
		for _, s := range scalar.RewriteSites(e) {
			if er.Apply(s.E, env) == nil {
				continue
			}
			cands = append(cands, eetCandidate{site: s, set: set})
		}
	}
	out.Walk(func(node *logical.Expr) {
		switch {
		case node.Op == logical.OpSelect:
			collect(node.Filter, func(e scalar.Expr) { node.Filter = e })
		case node.Op.IsJoin():
			collect(node.On, func(e scalar.Expr) { node.On = e })
		case node.Op == logical.OpProject:
			for i := range node.Projs {
				i := i
				collect(node.Projs[i].E, func(e scalar.Expr) { node.Projs[i].E = e })
			}
		}
	})
	if len(cands) == 0 {
		return nil
	}
	n := int64(len(cands))
	pick := cands[int(((seed%n)+n)%n)]
	pick.set(pick.site.Rebuild(er.Apply(pick.site.E, env)))
	return out
}
