package fuzz

import (
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// Shrink greedily minimizes a failing query tree: it repeatedly tries
// reductions — hoisting a child over its parent, dropping predicate
// conjuncts, projection items, grouping columns, aggregates, sort keys and
// union columns — and keeps any reduction for which keep still reports the
// failure. Candidates are enumerated in a fixed order and keep is assumed
// deterministic, so shrinking is deterministic; ill-formed candidates (a
// hoisted child missing columns its new parent references) are rejected by
// keep itself when the reduced tree fails to render, bind or plan.
//
// Every accepted reduction strictly decreases CountOps or a payload length,
// so shrinking terminates; a keep with a budget to keep rejects every
// candidate once it is spent. The returned tree shares nodes with the input;
// the input is never mutated.
func Shrink(tree *logical.Expr, keep func(*logical.Expr) bool) *logical.Expr {
	best := tree
	for {
		next := shrinkStep(best, keep)
		if next == nil {
			return best
		}
		best = next
	}
}

// shrinkStep returns the first accepted reduction of root, or nil when no
// candidate is accepted.
func shrinkStep(root *logical.Expr, try func(*logical.Expr) bool) *logical.Expr {
	var nodes []*logical.Expr
	var paths [][]int
	var walk func(e *logical.Expr, path []int)
	walk = func(e *logical.Expr, path []int) {
		nodes = append(nodes, e)
		paths = append(paths, append([]int(nil), path...))
		for i, c := range e.Children {
			walk(c, append(path, i))
		}
	}
	walk(root, nil)

	for ni, n := range nodes {
		path := paths[ni]
		// Hoist each child over the node: the strongest reduction, removing
		// the node (and, for binary operators, a whole sibling subtree).
		for i := range n.Children {
			if cand := replaceAt(root, path, n.Children[i]); try(cand) {
				return cand
			}
		}
		for _, repl := range reduceNode(n) {
			if cand := replaceAt(root, path, repl); try(cand) {
				return cand
			}
		}
	}
	return nil
}

// reduceNode enumerates single-payload reductions of one node, smallest
// change last so the more aggressive candidates are tried first.
func reduceNode(n *logical.Expr) []*logical.Expr {
	var out []*logical.Expr
	mod := func(f func(c *logical.Expr)) {
		c := *n
		c.Children = append([]*logical.Expr(nil), n.Children...)
		f(&c)
		out = append(out, &c)
	}
	switch n.Op {
	case logical.OpSelect:
		conj := scalar.Conjuncts(n.Filter)
		if len(conj) >= 2 {
			for i := range conj {
				rest := dropAt(conj, i)
				mod(func(c *logical.Expr) { c.Filter = scalar.MakeAnd(rest) })
			}
		}
	case logical.OpJoin, logical.OpLeftJoin, logical.OpSemiJoin, logical.OpAntiJoin:
		conj := scalar.Conjuncts(n.On)
		if len(conj) >= 2 {
			for i := range conj {
				rest := dropAt(conj, i)
				mod(func(c *logical.Expr) { c.On = scalar.MakeAnd(rest) })
			}
		}
	case logical.OpProject:
		if len(n.Projs) >= 2 {
			for i := range n.Projs {
				items := append(append([]logical.ProjItem(nil), n.Projs[:i]...), n.Projs[i+1:]...)
				mod(func(c *logical.Expr) { c.Projs = items })
			}
		}
	case logical.OpGroupBy:
		for i := range n.Aggs {
			aggs := append(append([]scalar.Agg(nil), n.Aggs[:i]...), n.Aggs[i+1:]...)
			mod(func(c *logical.Expr) { c.Aggs = aggs })
		}
		if len(n.GroupCols) >= 2 {
			for i := range n.GroupCols {
				gc := append(append([]scalar.ColumnID(nil), n.GroupCols[:i]...), n.GroupCols[i+1:]...)
				mod(func(c *logical.Expr) { c.GroupCols = gc })
			}
		}
	case logical.OpSort:
		if len(n.Keys) >= 2 {
			for i := range n.Keys {
				keys := append(append([]logical.SortKey(nil), n.Keys[:i]...), n.Keys[i+1:]...)
				mod(func(c *logical.Expr) { c.Keys = keys })
			}
		}
	case logical.OpUnionAll:
		if len(n.OutCols) >= 2 {
			for i := range n.OutCols {
				outs := append(append([]scalar.ColumnID(nil), n.OutCols[:i]...), n.OutCols[i+1:]...)
				ins := make([][]scalar.ColumnID, len(n.InputCols))
				for k, cs := range n.InputCols {
					ins[k] = append(append([]scalar.ColumnID(nil), cs[:i]...), cs[i+1:]...)
				}
				mod(func(c *logical.Expr) { c.OutCols, c.InputCols = outs, ins })
			}
		}
	}
	return out
}

func dropAt(conj []scalar.Expr, i int) []scalar.Expr {
	return append(append([]scalar.Expr(nil), conj[:i]...), conj[i+1:]...)
}

// replaceAt returns a copy of root with the node at path replaced by repl.
// Nodes off the path are shared with root, which is safe because shrink
// candidates are re-rendered and re-bound, never mutated.
func replaceAt(root *logical.Expr, path []int, repl *logical.Expr) *logical.Expr {
	if len(path) == 0 {
		return repl
	}
	cp := *root
	cp.Children = append([]*logical.Expr(nil), root.Children...)
	cp.Children[path[0]] = replaceAt(root.Children[path[0]], path[1:], repl)
	return &cp
}
