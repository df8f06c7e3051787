package rules

import (
	"fmt"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/scalar"
)

// explRule packages one exploration rule: metadata plus its substitution
// function.
type explRule struct {
	info
	apply func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr
}

// Apply implements ExplorationRule.
func (r *explRule) Apply(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
	return r.apply(ctx, b)
}

func expl(id ID, name string, pattern *Pattern, apply func(*Context, *memo.BoundExpr) []*memo.BoundExpr) *explRule {
	return &explRule{
		info:  info{id: id, name: name, kind: KindExploration, pattern: pattern},
		apply: apply,
	}
}

// producing declares the rule's output shapes (see Producer). Declarations
// are over-approximations checked statically: internal/rulecheck
// cross-validates them against the optimizer's observed rule interactions,
// so a substitute shape missing here is a test failure, not silent drift.
func (r *explRule) producing(ps ...*Pattern) *explRule {
	r.info.produces = ps
	return r
}

// kidCols returns the output column set of a bound child.
func kidCols(ctx *Context, b *memo.BoundExpr) scalar.ColSet {
	return ctx.Memo.Cols(b)
}

// splitConjuncts partitions the conjuncts of pred into those whose columns
// are all within allowed, and the rest.
func splitConjuncts(pred scalar.Expr, allowed scalar.ColSet) (within, rest []scalar.Expr) {
	return splitConjunctList(scalar.Conjuncts(pred), allowed)
}

// splitConjunctList is splitConjuncts over an already flattened conjunct
// list, for callers that assembled one and would otherwise wrap it in an And
// only to have it taken apart again.
func splitConjunctList(conj []scalar.Expr, allowed scalar.ColSet) (within, rest []scalar.Expr) {
	nw := 0
	for _, c := range conj {
		if scalar.RefsWithin(c, allowed) {
			nw++
		}
	}
	// All-on-one-side cases share the (immutable, capacity-clipped) conjunct
	// slice; a genuine split fills both halves of one backing allocation.
	switch nw {
	case 0:
		return nil, conj
	case len(conj):
		return conj, nil
	}
	buf := make([]scalar.Expr, len(conj))
	within, rest = buf[:0:nw], buf[nw:nw:len(conj)]
	for _, c := range conj {
		if scalar.RefsWithin(c, allowed) {
			within = append(within, c)
		} else {
			rest = append(rest, c)
		}
	}
	return within, rest
}

// groupHasRowKey reports whether some expression in the bound child's group
// guarantees duplicate-free rows: a Get over a table with a primary key (Get
// produces every table column, so the key is always in the output). This is
// the functional-dependency precondition of the group-by/join reordering
// rules — the paper's example of a condition beyond the pattern (§1).
func groupHasRowKey(ctx *Context, b *memo.BoundExpr) bool {
	if b.IsLeaf() {
		for _, e := range ctx.Memo.Group(b.Group).Exprs {
			if e.Op() == logical.OpGet {
				t, err := ctx.MD().Catalog().Table(e.Node.Table)
				if err == nil && len(t.PrimaryKey) > 0 {
					return true
				}
			}
		}
		return false
	}
	return b.Node.Op == logical.OpGet
}

// colsFormKey reports whether the given columns contain a key of the bound
// child: the child's group must hold a Get over a table whose primary-key
// columns all appear in cols.
func colsFormKey(ctx *Context, b *memo.BoundExpr, cols scalar.ColSet) bool {
	if !b.IsLeaf() {
		return false
	}
	for _, e := range ctx.Memo.Group(b.Group).Exprs {
		if e.Op() != logical.OpGet {
			continue
		}
		t, err := ctx.MD().Catalog().Table(e.Node.Table)
		if err != nil || len(t.PrimaryKey) == 0 {
			continue
		}
		ok := true
		for _, pk := range t.PrimaryKey {
			idx := t.ColumnIndex(pk)
			if idx < 0 || idx >= len(e.Node.Cols) || !cols.Contains(e.Node.Cols[idx]) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// colRefProjs builds pass-through projection items for the given columns.
func colRefProjs(cols []scalar.ColumnID) []logical.ProjItem {
	items := make([]logical.ProjItem, len(cols))
	for i, c := range cols {
		items[i] = logical.ProjItem{Out: c, E: &scalar.ColRef{ID: c}}
	}
	return items
}

// selectOver wraps b in a Select if the conjunct list is non-empty.
func selectOver(ctx *Context, b *memo.BoundExpr, conjuncts []scalar.Expr) *memo.BoundExpr {
	if len(conjuncts) == 0 {
		return b
	}
	return ctx.Memo.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: scalar.MakeAnd(conjuncts)}, b)
}

// explProduces declares, per rule ID, the shapes the rule's substitution
// can emit (see Producer). Where a rule wraps its output in a Select only
// when leftover conjuncts exist, both the wrapped and unwrapped shapes are
// listed. internal/rulecheck builds the termination graph from this table
// and cross-validates it against observed rule interactions on the TPC-H
// workload, so the table cannot silently drift from the substitutions.
var explProduces = map[ID][]*Pattern{
	1:  {P(logical.OpJoin, Any(), Any())},
	2:  {P(logical.OpJoin, Any(), P(logical.OpJoin, Any(), Any()))},
	3:  {P(logical.OpJoin, P(logical.OpJoin, Any(), Any()), Any())},
	4:  {P(logical.OpSelect, Any())},
	5:  {P(logical.OpJoin, Any(), Any())},
	6:  {P(logical.OpJoin, P(logical.OpSelect, Any()), Any()), P(logical.OpSelect, P(logical.OpJoin, P(logical.OpSelect, Any()), Any()))},
	7:  {P(logical.OpJoin, Any(), P(logical.OpSelect, Any())), P(logical.OpSelect, P(logical.OpJoin, Any(), P(logical.OpSelect, Any())))},
	8:  {P(logical.OpLeftJoin, P(logical.OpSelect, Any()), Any()), P(logical.OpSelect, P(logical.OpLeftJoin, P(logical.OpSelect, Any()), Any()))},
	9:  {P(logical.OpSelect, P(logical.OpJoin, Any(), Any()))},
	10: {P(logical.OpProject, P(logical.OpSelect, Any()))},
	11: {P(logical.OpProject, Any())},
	12: {P(logical.OpGroupBy, P(logical.OpSelect, Any())), P(logical.OpSelect, P(logical.OpGroupBy, P(logical.OpSelect, Any())))},
	13: {P(logical.OpUnionAll, P(logical.OpSelect, Any()), P(logical.OpSelect, Any()))},
	14: {P(logical.OpProject, P(logical.OpJoin, P(logical.OpGroupBy, Any()), Any()))},
	15: {P(logical.OpGroupBy, P(logical.OpJoin, Any(), Any()))},
	16: {P(logical.OpGroupBy, P(logical.OpLeftJoin, Any(), Any()))},
	17: {P(logical.OpLeftJoin, P(logical.OpJoin, Any(), Any()), Any())},
	18: {P(logical.OpJoin, Any(), P(logical.OpLeftJoin, Any(), Any()))},
	19: {P(logical.OpSemiJoin, P(logical.OpSelect, Any()), Any())},
	20: {P(logical.OpAntiJoin, P(logical.OpSelect, Any()), Any())},
	21: {P(logical.OpProject, P(logical.OpJoin, Any(), P(logical.OpGroupBy, Any())))},
	22: {P(logical.OpProject, P(logical.OpSelect, P(logical.OpLeftJoin, Any(), P(logical.OpGroupBy, Any()))))},
	23: {P(logical.OpUnionAll, Any(), Any())},
	24: {P(logical.OpUnionAll, P(logical.OpProject, Any()), P(logical.OpProject, Any()))},
	25: {P(logical.OpGroupBy, P(logical.OpUnionAll, P(logical.OpGroupBy, Any()), P(logical.OpGroupBy, Any())))},
	26: {P(logical.OpProject, P(logical.OpJoin, P(logical.OpProject, Any()), Any()))},
	27: {P(logical.OpProject, P(logical.OpJoin, Any(), P(logical.OpProject, Any())))},
	28: {P(logical.OpSemiJoin, Any(), P(logical.OpProject, Any()))},
	29: {P(logical.OpAntiJoin, Any(), P(logical.OpProject, Any()))},
	30: {P(logical.OpSelect, P(logical.OpJoin, Any(), Any()))},
}

// ExplorationRules returns the 30 exploration (logical) rules in ID order,
// each carrying its declared produced shapes from explProduces.
func ExplorationRules() []ExplorationRule {
	rs := []*explRule{
		// --- join reordering ------------------------------------------------

		expl(1, "JoinCommute", P(logical.OpJoin, Any(), Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				// The substitute's payload is the matched join's, shared.
				return ctx.sub(ctx.Memo.Bound(b.Node, b.Kids[1], b.Kids[0]))
			}),

		expl(2, "JoinAssocLeft", P(logical.OpJoin, P(logical.OpJoin, Any(), Any()), Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				// (a ⋈p1 b) ⋈p2 c  →  a ⋈outer (b ⋈inner c)
				inner := b.Kids[0]
				a, bb, c := inner.Kids[0], inner.Kids[1], b.Kids[1]
				all := append(scalar.Conjuncts(inner.Node.On), scalar.Conjuncts(b.Node.On)...)
				bc := kidCols(ctx, bb).Union(kidCols(ctx, c))
				within, rest := splitConjunctList(all, bc)
				if len(within) == 0 && len(all) > 0 {
					// Refuse to synthesize a cross product.
					return nil
				}
				newInner := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpJoin, On: scalar.MakeAnd(within)}, bb, c)
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{Op: logical.OpJoin, On: scalar.MakeAnd(rest)}, a, newInner))
			}),

		expl(3, "JoinAssocRight", P(logical.OpJoin, Any(), P(logical.OpJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				// a ⋈p1 (b ⋈p2 c)  →  (a ⋈inner b) ⋈outer c
				inner := b.Kids[1]
				a, bb, c := b.Kids[0], inner.Kids[0], inner.Kids[1]
				all := append(scalar.Conjuncts(b.Node.On), scalar.Conjuncts(inner.Node.On)...)
				ab := kidCols(ctx, a).Union(kidCols(ctx, bb))
				within, rest := splitConjunctList(all, ab)
				if len(within) == 0 && len(all) > 0 {
					return nil
				}
				newInner := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpJoin, On: scalar.MakeAnd(within)}, a, bb)
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{Op: logical.OpJoin, On: scalar.MakeAnd(rest)}, newInner, c))
			}),

		// --- selection placement --------------------------------------------

		expl(4, "SelectMerge", P(logical.OpSelect, P(logical.OpSelect, Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				inner := b.Kids[0]
				merged := scalar.MakeAnd(append(scalar.Conjuncts(b.Node.Filter), scalar.Conjuncts(inner.Node.Filter)...))
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: merged}, inner.Kids[0]))
			}),

		expl(5, "SelectIntoJoin", P(logical.OpSelect, P(logical.OpJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				join := b.Kids[0]
				merged := scalar.MakeAnd(append(scalar.Conjuncts(join.Node.On), scalar.Conjuncts(b.Node.Filter)...))
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{Op: logical.OpJoin, On: merged}, join.Kids[0], join.Kids[1]))
			}),

		expl(6, "PushSelectBelowJoinLeft", P(logical.OpSelect, P(logical.OpJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				join := b.Kids[0]
				left := kidCols(ctx, join.Kids[0])
				within, rest := splitConjuncts(b.Node.Filter, left)
				if len(within) == 0 {
					return nil
				}
				newJoin := ctx.Memo.Bound(join.Node, selectOver(ctx, join.Kids[0], within), join.Kids[1])
				return ctx.sub(selectOver(ctx, newJoin, rest))
			}),

		expl(7, "PushSelectBelowJoinRight", P(logical.OpSelect, P(logical.OpJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				join := b.Kids[0]
				right := kidCols(ctx, join.Kids[1])
				within, rest := splitConjuncts(b.Node.Filter, right)
				if len(within) == 0 {
					return nil
				}
				newJoin := ctx.Memo.Bound(join.Node, join.Kids[0], selectOver(ctx, join.Kids[1], within))
				return ctx.sub(selectOver(ctx, newJoin, rest))
			}),

		expl(8, "PushSelectBelowLeftJoin", P(logical.OpSelect, P(logical.OpLeftJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				// Only left-side conjuncts may move below a left outer join.
				join := b.Kids[0]
				left := kidCols(ctx, join.Kids[0])
				within, rest := splitConjuncts(b.Node.Filter, left)
				if len(within) == 0 {
					return nil
				}
				newJoin := ctx.Memo.Bound(join.Node, selectOver(ctx, join.Kids[0], within), join.Kids[1])
				return ctx.sub(selectOver(ctx, newJoin, rest))
			}),

		expl(9, "SimplifyLeftJoin", P(logical.OpSelect, P(logical.OpLeftJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				// A null-rejecting filter on the null-extended side turns the
				// outer join into an inner join.
				join := b.Kids[0]
				right := kidCols(ctx, join.Kids[1])
				if !logical.RejectsNullsOn(b.Node.Filter, right) {
					return nil
				}
				newJoin := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpJoin, On: join.Node.On},
					join.Kids[0], join.Kids[1])
				return ctx.sub(ctx.Memo.Bound(b.Node, newJoin))
			}),

		expl(10, "PushSelectBelowProject", P(logical.OpSelect, P(logical.OpProject, Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				proj := b.Kids[0]
				subst := make(map[scalar.ColumnID]scalar.Expr, len(proj.Node.Projs))
				for _, it := range proj.Node.Projs {
					subst[it.Out] = it.E
				}
				inlined := scalar.Substitute(b.Node.Filter, subst)
				newSel := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: inlined}, proj.Kids[0])
				return ctx.sub(ctx.Memo.Bound(proj.Node, newSel))
			}),

		expl(11, "ProjectMerge", P(logical.OpProject, P(logical.OpProject, Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				inner := b.Kids[0]
				subst := make(map[scalar.ColumnID]scalar.Expr, len(inner.Node.Projs))
				for _, it := range inner.Node.Projs {
					subst[it.Out] = it.E
				}
				items := make([]logical.ProjItem, len(b.Node.Projs))
				for i, it := range b.Node.Projs {
					items[i] = logical.ProjItem{Out: it.Out, E: scalar.Substitute(it.E, subst)}
				}
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{Op: logical.OpProject, Projs: items}, inner.Kids[0]))
			}),

		expl(12, "PushSelectBelowGroupBy", P(logical.OpSelect, P(logical.OpGroupBy, Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				gb := b.Kids[0]
				within, rest := splitConjuncts(b.Node.Filter, scalar.NewColSet(gb.Node.GroupCols...))
				if len(within) == 0 {
					return nil
				}
				newGB := ctx.Memo.Bound(gb.Node, selectOver(ctx, gb.Kids[0], within))
				return ctx.sub(selectOver(ctx, newGB, rest))
			}),

		expl(13, "PushSelectBelowUnionAll", P(logical.OpSelect, P(logical.OpUnionAll, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				u := b.Kids[0]
				kids := make([]*memo.BoundExpr, 2)
				for i := 0; i < 2; i++ {
					mapping := make(map[scalar.ColumnID]scalar.ColumnID, len(u.Node.OutCols))
					for j, out := range u.Node.OutCols {
						mapping[out] = u.Node.InputCols[i][j]
					}
					kids[i] = ctx.Memo.BoundNew(logical.Expr{
						Op: logical.OpSelect, Filter: scalar.Remap(b.Node.Filter, mapping),
					}, u.Kids[i])
				}
				return ctx.sub(ctx.Memo.Bound(u.Node, kids[0], kids[1]))
			}),

		// --- group-by / join reordering --------------------------------------

		expl(14, "PushGroupByBelowJoin", P(logical.OpGroupBy, P(logical.OpJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				// GroupBy(a ⋈ b) → Project(GroupBy(a) ⋈ b). Preconditions
				// (invariant grouping [3]): aggregates read only a; the join
				// columns from a are grouping columns; and the join columns
				// from b form a key of b, so no a-row is duplicated.
				join := b.Kids[0]
				a, bb := join.Kids[0], join.Kids[1]
				colsA := kidCols(ctx, a)
				gcSet := scalar.NewColSet(b.Node.GroupCols...)
				if !logical.AggsReferenceOnly(b.Node.Aggs, colsA) {
					return nil
				}
				grouped := true
				scalar.ReferencedCols(join.Node.On).ForEach(func(id scalar.ColumnID) {
					if colsA.Contains(id) && !gcSet.Contains(id) {
						grouped = false
					}
				})
				if !grouped {
					return nil
				}
				pairs, _ := logical.EquiJoinCols(join.Node.On, colsA, kidCols(ctx, bb))
				var rcols scalar.ColSet
				for _, p := range pairs {
					rcols.Add(p[1])
				}
				if !colsFormKey(ctx, bb, rcols) {
					return nil
				}
				var gcA []scalar.ColumnID
				for _, c := range b.Node.GroupCols {
					if colsA.Contains(c) {
						gcA = append(gcA, c)
					} else if !kidCols(ctx, bb).Contains(c) {
						return nil
					}
				}
				newGB := ctx.Memo.BoundNew(logical.Expr{
					Op: logical.OpGroupBy, GroupCols: gcA, Aggs: b.Node.Aggs,
				}, a)
				newJoin := ctx.Memo.Bound(join.Node, newGB, bb)
				outs := append([]scalar.ColumnID(nil), b.Node.GroupCols...)
				for _, ag := range b.Node.Aggs {
					outs = append(outs, ag.Out)
				}
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{Op: logical.OpProject, Projs: colRefProjs(outs)}, newJoin))
			}),

		expl(15, "PullGroupByAboveJoin", P(logical.OpJoin, P(logical.OpGroupBy, Any()), Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				return pullGroupByAboveJoin(ctx, b, logical.OpJoin)
			}),

		expl(16, "PullGroupByAboveLeftJoin", P(logical.OpLeftJoin, P(logical.OpGroupBy, Any()), Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				return pullGroupByAboveJoin(ctx, b, logical.OpLeftJoin)
			}),

		// --- join / outer-join association ------------------------------------

		expl(17, "JoinLeftJoinAssoc", P(logical.OpJoin, Any(), P(logical.OpLeftJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				// a ⋈p1 (b LOJ p2 c) → (a ⋈p1 b) LOJ p2 c, requires p1 over a,b
				// only — the paper's §3 example of rule dependencies.
				loj := b.Kids[1]
				a, bb, c := b.Kids[0], loj.Kids[0], loj.Kids[1]
				ab := kidCols(ctx, a).Union(kidCols(ctx, bb))
				if !scalar.ReferencedCols(b.Node.On).SubsetOf(ab) {
					return nil
				}
				newJoin := ctx.Memo.Bound(b.Node, a, bb)
				return ctx.sub(ctx.Memo.Bound(loj.Node, newJoin, c))
			}),

		expl(18, "LeftJoinJoinAssoc", P(logical.OpLeftJoin, P(logical.OpJoin, Any(), Any()), Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				// (a ⋈p1 b) LOJ p2 c → a ⋈p1 (b LOJ p2 c), requires p2 over b,c.
				join := b.Kids[0]
				a, bb, c := join.Kids[0], join.Kids[1], b.Kids[1]
				bc := kidCols(ctx, bb).Union(kidCols(ctx, c))
				if !scalar.ReferencedCols(b.Node.On).SubsetOf(bc) {
					return nil
				}
				newLOJ := ctx.Memo.Bound(b.Node, bb, c)
				return ctx.sub(ctx.Memo.Bound(join.Node, a, newLOJ))
			}),

		// --- semi / anti joins -------------------------------------------------

		expl(19, "PushSelectBelowSemiJoin", P(logical.OpSelect, P(logical.OpSemiJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				sj := b.Kids[0]
				newLeft := ctx.Memo.Bound(b.Node, sj.Kids[0])
				return ctx.sub(ctx.Memo.Bound(sj.Node, newLeft, sj.Kids[1]))
			}),

		expl(20, "PushSelectBelowAntiJoin", P(logical.OpSelect, P(logical.OpAntiJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				aj := b.Kids[0]
				newLeft := ctx.Memo.Bound(b.Node, aj.Kids[0])
				return ctx.sub(ctx.Memo.Bound(aj.Node, newLeft, aj.Kids[1]))
			}),

		expl(21, "SemiJoinToJoin", P(logical.OpSemiJoin, Any(), Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				// a SEMI b → Project_a(a ⋈ Distinct_joincols(b)); requires a
				// pure equi-join condition.
				a, bb := b.Kids[0], b.Kids[1]
				pairs, rest := logical.EquiJoinCols(b.Node.On, kidCols(ctx, a), kidCols(ctx, bb))
				if len(pairs) == 0 || len(rest) > 0 {
					return nil
				}
				rcols := make([]scalar.ColumnID, len(pairs))
				for i, p := range pairs {
					rcols[i] = p[1]
				}
				distinct := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpGroupBy, GroupCols: rcols}, bb)
				join := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpJoin, On: b.Node.On}, a, distinct)
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{
					Op: logical.OpProject, Projs: colRefProjs(kidCols(ctx, a).Sorted()),
				}, join))
			}),

		expl(22, "AntiJoinToLeftJoin", P(logical.OpAntiJoin, Any(), Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				// a ANTI b → Project_a(σ(r IS NULL)(a LOJ Distinct_joincols(b))).
				a, bb := b.Kids[0], b.Kids[1]
				pairs, rest := logical.EquiJoinCols(b.Node.On, kidCols(ctx, a), kidCols(ctx, bb))
				if len(pairs) == 0 || len(rest) > 0 {
					return nil
				}
				rcols := make([]scalar.ColumnID, len(pairs))
				for i, p := range pairs {
					rcols[i] = p[1]
				}
				distinct := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpGroupBy, GroupCols: rcols}, bb)
				loj := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpLeftJoin, On: b.Node.On}, a, distinct)
				sel := ctx.Memo.BoundNew(logical.Expr{
					Op: logical.OpSelect, Filter: &scalar.IsNull{Kid: &scalar.ColRef{ID: rcols[0]}},
				}, loj)
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{
					Op: logical.OpProject, Projs: colRefProjs(kidCols(ctx, a).Sorted()),
				}, sel))
			}),

		// --- union ---------------------------------------------------------------

		expl(23, "UnionAllCommute", P(logical.OpUnionAll, Any(), Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{
					Op:        logical.OpUnionAll,
					OutCols:   b.Node.OutCols,
					InputCols: [][]scalar.ColumnID{b.Node.InputCols[1], b.Node.InputCols[0]},
				}, b.Kids[1], b.Kids[0]))
			}),

		expl(24, "PushProjectBelowUnionAll", P(logical.OpProject, P(logical.OpUnionAll, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				u := b.Kids[0]
				md := ctx.MD()
				kids := make([]*memo.BoundExpr, 2)
				inCols := make([][]scalar.ColumnID, 2)
				outCols := make([]scalar.ColumnID, len(b.Node.Projs))
				for j, it := range b.Node.Projs {
					outCols[j] = it.Out
				}
				for i := 0; i < 2; i++ {
					mapping := make(map[scalar.ColumnID]scalar.ColumnID, len(u.Node.OutCols))
					for j, out := range u.Node.OutCols {
						mapping[out] = u.Node.InputCols[i][j]
					}
					items := make([]logical.ProjItem, len(b.Node.Projs))
					inCols[i] = make([]scalar.ColumnID, len(b.Node.Projs))
					for j, it := range b.Node.Projs {
						fresh := md.AddColumn(logical.ColumnMeta{
							Name: "u", Type: md.Column(it.Out).Type,
						})
						items[j] = logical.ProjItem{Out: fresh, E: scalar.Remap(it.E, mapping)}
						inCols[i][j] = fresh
					}
					kids[i] = ctx.Memo.BoundNew(logical.Expr{Op: logical.OpProject, Projs: items}, u.Kids[i])
				}
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{
					Op: logical.OpUnionAll, OutCols: outCols, InputCols: inCols,
				}, kids[0], kids[1]))
			}),

		expl(25, "PushGroupByBelowUnionAll", P(logical.OpGroupBy, P(logical.OpUnionAll, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				return pushGroupByBelowUnionAll(ctx, b)
			}),

		// --- column pruning ---------------------------------------------------

		expl(26, "PruneJoinLeftCols", P(logical.OpProject, P(logical.OpJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				return pruneJoinSide(ctx, b, 0)
			}),

		expl(27, "PruneJoinRightCols", P(logical.OpProject, P(logical.OpJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				return pruneJoinSide(ctx, b, 1)
			}),

		expl(28, "ReduceSemiJoinRight", P(logical.OpSemiJoin, Any(), Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				return reduceExistentialRight(ctx, b, logical.OpSemiJoin)
			}),

		expl(29, "ReduceAntiJoinRight", P(logical.OpAntiJoin, Any(), Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				return reduceExistentialRight(ctx, b, logical.OpAntiJoin)
			}),

		expl(30, "PullSelectAboveJoin", P(logical.OpJoin, P(logical.OpSelect, Any()), Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				sel := b.Kids[0]
				newJoin := ctx.Memo.Bound(b.Node, sel.Kids[0], b.Kids[1])
				return ctx.sub(ctx.Memo.Bound(sel.Node, newJoin))
			}),
	}
	out := make([]ExplorationRule, len(rs))
	for i, r := range rs {
		ps, ok := explProduces[r.id]
		if !ok {
			panic(fmt.Sprintf("rules: builtin exploration rule %s(#%d) has no produces declaration", r.name, r.id))
		}
		out[i] = r.producing(ps...)
	}
	return out
}

// pullGroupByAboveJoin implements rules 15/16: (GroupBy(a)) ⋈ b →
// GroupBy(a ⋈ b) grouping additionally by every column of b. Preconditions:
// the join predicate must not reference aggregate outputs, and b must be
// duplicate-free (see groupHasRowKey).
func pullGroupByAboveJoin(ctx *Context, b *memo.BoundExpr, joinOp logical.Op) []*memo.BoundExpr {
	gb := b.Kids[0]
	a, bb := gb.Kids[0], b.Kids[1]
	var aggOuts scalar.ColSet
	for _, ag := range gb.Node.Aggs {
		aggOuts.Add(ag.Out)
	}
	if scalar.ReferencedCols(b.Node.On).Intersects(aggOuts) {
		return nil
	}
	if !groupHasRowKey(ctx, bb) {
		return nil
	}
	gc := append([]scalar.ColumnID(nil), gb.Node.GroupCols...)
	gc = append(gc, kidCols(ctx, bb).Sorted()...)
	newJoin := ctx.Memo.BoundNew(logical.Expr{Op: joinOp, On: b.Node.On}, a, bb)
	return ctx.sub(ctx.Memo.BoundNew(logical.Expr{
		Op: logical.OpGroupBy, GroupCols: gc, Aggs: gb.Node.Aggs,
	}, newJoin))
}

// pushGroupByBelowUnionAll implements rule 25 (local/global aggregation):
// GroupBy(a ∪ b) → GroupBy_global(GroupBy_local(a) ∪ GroupBy_local(b)).
// COUNT becomes SUM of local counts; AVG is not decomposable and blocks the
// rule.
func pushGroupByBelowUnionAll(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
	u := b.Kids[0]
	md := ctx.MD()
	for _, ag := range b.Node.Aggs {
		switch ag.Op {
		case scalar.AggSum, scalar.AggMin, scalar.AggMax, scalar.AggCount, scalar.AggCountStar:
		default:
			return nil
		}
	}
	// The new union outputs the grouping columns under their original ids
	// plus one fresh column per aggregate.
	newOut := append([]scalar.ColumnID(nil), b.Node.GroupCols...)
	aggUnionCols := make([]scalar.ColumnID, len(b.Node.Aggs))
	for k, ag := range b.Node.Aggs {
		typ := md.Column(ag.Out).Type
		if ag.Op == scalar.AggCount || ag.Op == scalar.AggCountStar {
			typ = datum.TypeInt
		}
		aggUnionCols[k] = md.AddColumn(logical.ColumnMeta{Name: "la", Type: typ})
		newOut = append(newOut, aggUnionCols[k])
	}
	outIdx := make(map[scalar.ColumnID]int, len(u.Node.OutCols))
	for j, out := range u.Node.OutCols {
		outIdx[out] = j
	}
	kids := make([]*memo.BoundExpr, 2)
	inCols := make([][]scalar.ColumnID, 2)
	for i := 0; i < 2; i++ {
		mapping := make(map[scalar.ColumnID]scalar.ColumnID, len(u.Node.OutCols))
		for j, out := range u.Node.OutCols {
			mapping[out] = u.Node.InputCols[i][j]
		}
		localGC := make([]scalar.ColumnID, len(b.Node.GroupCols))
		for j, g := range b.Node.GroupCols {
			idx, ok := outIdx[g]
			if !ok {
				return nil
			}
			localGC[j] = u.Node.InputCols[i][idx]
		}
		localAggs := make([]scalar.Agg, len(b.Node.Aggs))
		localOuts := make([]scalar.ColumnID, len(b.Node.Aggs))
		for k, ag := range b.Node.Aggs {
			typ := md.Column(ag.Out).Type
			if ag.Op == scalar.AggCount || ag.Op == scalar.AggCountStar {
				typ = datum.TypeInt
			}
			localOuts[k] = md.AddColumn(logical.ColumnMeta{Name: "la", Type: typ})
			var arg scalar.Expr
			if ag.Arg != nil {
				arg = scalar.Remap(ag.Arg, mapping)
			}
			localAggs[k] = scalar.Agg{Op: ag.Op, Arg: arg, Out: localOuts[k]}
		}
		kids[i] = ctx.Memo.BoundNew(logical.Expr{
			Op: logical.OpGroupBy, GroupCols: localGC, Aggs: localAggs,
		}, u.Kids[i])
		inCols[i] = append(append([]scalar.ColumnID(nil), localGC...), localOuts...)
	}
	newUnion := ctx.Memo.BoundNew(logical.Expr{
		Op: logical.OpUnionAll, OutCols: newOut, InputCols: inCols,
	}, kids[0], kids[1])
	globalAggs := make([]scalar.Agg, len(b.Node.Aggs))
	for k, ag := range b.Node.Aggs {
		op := ag.Op
		if op == scalar.AggCount || op == scalar.AggCountStar {
			op = scalar.AggSum
		}
		globalAggs[k] = scalar.Agg{Op: op, Arg: &scalar.ColRef{ID: aggUnionCols[k]}, Out: ag.Out}
	}
	return ctx.sub(ctx.Memo.BoundNew(logical.Expr{
		Op: logical.OpGroupBy, GroupCols: b.Node.GroupCols, Aggs: globalAggs,
	}, newUnion))
}

// pruneJoinSide implements rules 26/27: Project(a ⋈ b) → Project(Project(a') ⋈ b)
// where a' keeps only the columns the projection or join predicate needs.
func pruneJoinSide(ctx *Context, b *memo.BoundExpr, side int) []*memo.BoundExpr {
	join := b.Kids[0]
	var needed scalar.ColSet
	for _, it := range b.Node.Projs {
		it.E.Cols(&needed)
	}
	join.Node.On.Cols(&needed)
	sideCols := kidCols(ctx, join.Kids[side])
	keep := keptCols(sideCols, needed)
	if len(keep) == 0 || len(keep) == sideCols.Len() {
		return nil
	}
	pruned := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpProject, Projs: colRefProjs(keep)}, join.Kids[side])
	kids := []*memo.BoundExpr{join.Kids[0], join.Kids[1]}
	kids[side] = pruned
	newJoin := ctx.Memo.Bound(join.Node, kids[0], kids[1])
	return ctx.sub(ctx.Memo.Bound(b.Node, newJoin))
}

// keptCols returns the members of cols that are also in needed, ascending, or
// nil when there are none.
func keptCols(cols, needed scalar.ColSet) []scalar.ColumnID {
	var keep []scalar.ColumnID
	cols.ForEach(func(c scalar.ColumnID) {
		if needed.Contains(c) {
			keep = append(keep, c)
		}
	})
	return keep
}

// reduceExistentialRight implements rules 28/29: the right input of a semi or
// anti join only needs the columns its predicate references.
func reduceExistentialRight(ctx *Context, b *memo.BoundExpr, op logical.Op) []*memo.BoundExpr {
	right := kidCols(ctx, b.Kids[1])
	needed := scalar.ReferencedCols(b.Node.On)
	keep := keptCols(right, needed)
	if len(keep) == 0 || len(keep) == right.Len() {
		return nil
	}
	pruned := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpProject, Projs: colRefProjs(keep)}, b.Kids[1])
	return ctx.sub(ctx.Memo.Bound(b.Node, b.Kids[0], pruned))
}
