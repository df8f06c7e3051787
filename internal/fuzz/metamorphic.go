package fuzz

import (
	"slices"

	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// A Rewrite is one known-equivalence metamorphic transformation: applied to a
// query tree it yields a different tree with the same result multiset (up to
// the usual LIMIT-without-total-order caveat, which the order-aware oracle
// already classifies as Undetermined). Rewritten trees are rendered back to
// SQL and re-planned, so the oracle compares two full optimizer+executor
// passes — no disabled-rule baseline needed (the EET idea).
type Rewrite struct {
	Name string
	// Apply returns the rewritten tree, or nil when the rewrite does not
	// apply to this query. The input tree is never mutated. seed is the
	// query's derived seed: rewrites with a choice to make (the EET
	// rewrites pick one expression site per query) make it deterministically
	// from seed, so reports stay byte-identical at any worker count and the
	// shrinker can replay the exact same choice.
	Apply func(tree *logical.Expr, md *logical.Metadata, seed int64) *logical.Expr
}

// Rewrites returns the metamorphic rewrite catalog in fixed order.
func Rewrites() []Rewrite {
	return []Rewrite{
		{Name: "reorder-predicates", Apply: reorderPredicates},
		{Name: "commute-joins", Apply: commuteJoins},
		{Name: "redundant-filter", Apply: redundantFilter},
	}
}

// reorderPredicates reverses the conjunct order of every multi-conjunct
// Select filter and join predicate. AND is commutative under SQL's
// three-valued logic and the engine's scalar evaluation is side-effect-free,
// so the result multiset is unchanged — but predicate-ordering-sensitive
// optimizer code (conjunct splitting, equi-key extraction) sees different
// input.
func reorderPredicates(tree *logical.Expr, _ *logical.Metadata, _ int64) *logical.Expr {
	applied := false
	out := tree.Clone()
	out.Walk(func(e *logical.Expr) {
		if e.Op == logical.OpSelect {
			if f, ok := reverseConjuncts(e.Filter); ok {
				e.Filter = f
				applied = true
			}
		}
		if e.Op.IsJoin() {
			if on, ok := reverseConjuncts(e.On); ok {
				e.On = on
				applied = true
			}
		}
	})
	if !applied {
		return nil
	}
	return out
}

// reverseConjuncts rebuilds a predicate with its conjuncts in reverse order;
// ok is false when there is at most one conjunct. The conjunct slice is
// copied: Conjuncts may share the original And's backing array.
func reverseConjuncts(pred scalar.Expr) (scalar.Expr, bool) {
	if pred == nil {
		return nil, false
	}
	conj := scalar.Conjuncts(pred)
	if len(conj) < 2 {
		return nil, false
	}
	rev := make([]scalar.Expr, len(conj))
	for i, c := range conj {
		rev[len(conj)-1-i] = c
	}
	return scalar.MakeAnd(rev), true
}

// commuteJoins swaps the children of every inner Join. Inner joins are
// commutative as multisets, but the column order of a join's output follows
// its children, so when the root's column list changes an identity Project
// restores the original order — the rewritten query stays comparable
// column-for-column with the original.
func commuteJoins(tree *logical.Expr, _ *logical.Metadata, _ int64) *logical.Expr {
	applied := false
	out := tree.Clone()
	out.Walk(func(e *logical.Expr) {
		if e.Op == logical.OpJoin {
			e.Children[0], e.Children[1] = e.Children[1], e.Children[0]
			applied = true
		}
	})
	if !applied {
		return nil
	}
	orig := tree.OutputCols()
	now := out.OutputCols()
	if !slices.Equal(orig, now) {
		items := make([]logical.ProjItem, len(orig))
		for i, c := range orig {
			items[i] = logical.ProjItem{Out: c, E: &scalar.ColRef{ID: c}}
		}
		out = &logical.Expr{Op: logical.OpProject, Children: []*logical.Expr{out}, Projs: items}
	}
	return out
}

// redundantFilter wraps the query in a tautological selection over its first
// output column: c IS NULL OR NOT (c IS NULL) holds for every value
// including NULL (unlike c = c, which is NULL for NULL), so the filter keeps
// every row — even above a LIMIT — while handing the optimizer an extra
// Select to push around.
func redundantFilter(tree *logical.Expr, _ *logical.Metadata, _ int64) *logical.Expr {
	cols := tree.OutputCols()
	if len(cols) == 0 {
		return nil
	}
	ref := func() scalar.Expr { return &scalar.ColRef{ID: cols[0]} }
	pred := &scalar.Or{Kids: []scalar.Expr{
		&scalar.IsNull{Kid: ref()},
		&scalar.Not{Kid: &scalar.IsNull{Kid: ref()}},
	}}
	return &logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{tree.Clone()}, Filter: pred}
}
