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

// conjuncts returns the conjuncts of preds in order: one flat And's own list
// (substitutes share it), else one list of the memo's scratch.
func conjuncts(ctx *Context, preds ...scalar.Expr) []scalar.Expr {
	n := 0
	for _, p := range preds {
		n += scalar.NumConjuncts(p)
	}
	if a, ok := preds[0].(*scalar.And); ok && len(preds) == 1 && n == len(a.Kids) {
		return a.Kids[:n:n]
	}
	conj := ctx.Memo.ScratchExprs(n)[:0]
	for _, p := range preds {
		conj = scalar.AppendConjuncts(conj, p)
	}
	return conj
}

// splitConjuncts partitions a conjunct list into the conjuncts whose columns
// are all within allowed and the rest, each in order: conj itself when all
// fall on one side, else the two halves of one list of the memo's scratch.
func splitConjuncts(ctx *Context, conj []scalar.Expr, allowed scalar.ColSet) (within, rest []scalar.Expr) {
	nw := 0
	for _, c := range conj {
		if scalar.RefsWithin(c, allowed) {
			nw++
		}
	}
	switch nw {
	case 0:
		return nil, conj
	case len(conj):
		return conj, nil
	}
	buf := ctx.Memo.ScratchExprs(len(conj))
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

// colsFormKey reports whether the given columns contain a key of the bound
// child: the child's group must hold a Get over a table whose primary-key
// columns all appear in cols. It is the functional-dependency precondition of
// the group-by/join reordering rules — the paper's example of a condition
// beyond the pattern (§1).
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

// colRefProjs builds pass-through projection items for the given columns, in
// the memo's scratch.
func colRefProjs(ctx *Context, cols []scalar.ColumnID) []logical.ProjItem {
	items := ctx.Memo.ScratchProjs(len(cols))
	for i, c := range cols {
		items[i] = logical.ProjItem{Out: c, E: scalar.Ref(c)}
	}
	return items
}

// selectOver wraps b in a Select if the conjunct list is non-empty.
func selectOver(ctx *Context, b *memo.BoundExpr, conj []scalar.Expr) *memo.BoundExpr {
	if len(conj) == 0 {
		return b
	}
	return ctx.Memo.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: ctx.Memo.And(conj)}, b)
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
				all := conjuncts(ctx, inner.Node.On, b.Node.On)
				bc := ctx.Memo.Cols(bb).Union(ctx.Memo.Cols(c))
				within, rest := splitConjuncts(ctx, all, bc)
				if len(within) == 0 && len(all) > 0 {
					// Refuse to synthesize a cross product.
					return nil
				}
				newInner := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpJoin, On: ctx.Memo.And(within)}, bb, c)
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{Op: logical.OpJoin, On: ctx.Memo.And(rest)}, a, newInner))
			}),

		expl(3, "JoinAssocRight", P(logical.OpJoin, Any(), P(logical.OpJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				// a ⋈p1 (b ⋈p2 c)  →  (a ⋈inner b) ⋈outer c
				inner := b.Kids[1]
				a, bb, c := b.Kids[0], inner.Kids[0], inner.Kids[1]
				all := conjuncts(ctx, b.Node.On, inner.Node.On)
				ab := ctx.Memo.Cols(a).Union(ctx.Memo.Cols(bb))
				within, rest := splitConjuncts(ctx, all, ab)
				if len(within) == 0 && len(all) > 0 {
					return nil
				}
				newInner := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpJoin, On: ctx.Memo.And(within)}, a, bb)
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{Op: logical.OpJoin, On: ctx.Memo.And(rest)}, newInner, c))
			}),

		// --- selection placement --------------------------------------------

		expl(4, "SelectMerge", P(logical.OpSelect, P(logical.OpSelect, Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				inner := b.Kids[0]
				merged := ctx.Memo.And(conjuncts(ctx, b.Node.Filter, inner.Node.Filter))
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: merged}, inner.Kids[0]))
			}),

		expl(5, "SelectIntoJoin", P(logical.OpSelect, P(logical.OpJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				join := b.Kids[0]
				merged := ctx.Memo.And(conjuncts(ctx, join.Node.On, b.Node.Filter))
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{Op: logical.OpJoin, On: merged}, join.Kids[0], join.Kids[1]))
			}),

		expl(6, "PushSelectBelowJoinLeft", P(logical.OpSelect, P(logical.OpJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				return pushSelectBelowJoin(ctx, b, 0)
			}),

		expl(7, "PushSelectBelowJoinRight", P(logical.OpSelect, P(logical.OpJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				return pushSelectBelowJoin(ctx, b, 1)
			}),

		expl(8, "PushSelectBelowLeftJoin", P(logical.OpSelect, P(logical.OpLeftJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				// Only left-side conjuncts may move below a left outer join.
				return pushSelectBelowJoin(ctx, b, 0)
			}),

		expl(9, "SimplifyLeftJoin", P(logical.OpSelect, P(logical.OpLeftJoin, Any(), Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				// A null-rejecting filter on the null-extended side turns the
				// outer join into an inner join.
				join := b.Kids[0]
				right := ctx.Memo.Cols(join.Kids[1])
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
				items := ctx.Memo.ScratchProjs(len(b.Node.Projs))
				for i, it := range b.Node.Projs {
					items[i] = logical.ProjItem{Out: it.Out, E: scalar.Substitute(it.E, subst)}
				}
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{Op: logical.OpProject, Projs: items}, inner.Kids[0]))
			}),

		expl(12, "PushSelectBelowGroupBy", P(logical.OpSelect, P(logical.OpGroupBy, Any())),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				gb := b.Kids[0]
				within, rest := splitConjuncts(ctx, conjuncts(ctx, b.Node.Filter), scalar.NewColSet(gb.Node.GroupCols...))
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
					kids[i] = ctx.Memo.BoundNew(logical.Expr{
						Op: logical.OpSelect, Filter: scalar.Remap(b.Node.Filter, branchCols(u, i)),
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
				colsA := ctx.Memo.Cols(a)
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
				pairs, _ := logical.EquiJoinCols(join.Node.On, colsA, ctx.Memo.Cols(bb))
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
					} else if !ctx.Memo.Cols(bb).Contains(c) {
						return nil
					}
				}
				newGB := ctx.Memo.BoundNew(logical.Expr{
					Op: logical.OpGroupBy, GroupCols: gcA, Aggs: b.Node.Aggs,
				}, a)
				newJoin := ctx.Memo.Bound(join.Node, newGB, bb)
				outs := append(ctx.Memo.ScratchCols(len(b.Node.GroupCols) + len(b.Node.Aggs))[:0], b.Node.GroupCols...)
				for _, ag := range b.Node.Aggs {
					outs = append(outs, ag.Out)
				}
				return ctx.sub(ctx.Memo.BoundNew(logical.Expr{Op: logical.OpProject, Projs: colRefProjs(ctx, outs)}, newJoin))
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
				ab := ctx.Memo.Cols(a).Union(ctx.Memo.Cols(bb))
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
				bc := ctx.Memo.Cols(bb).Union(ctx.Memo.Cols(c))
				if !scalar.ReferencedCols(b.Node.On).SubsetOf(bc) {
					return nil
				}
				newLOJ := ctx.Memo.Bound(b.Node, bb, c)
				return ctx.sub(ctx.Memo.Bound(join.Node, a, newLOJ))
			}),

		// --- semi / anti joins -------------------------------------------------

		expl(19, "PushSelectBelowSemiJoin", P(logical.OpSelect, P(logical.OpSemiJoin, Any(), Any())), pushSelectLeft),
		expl(20, "PushSelectBelowAntiJoin", P(logical.OpSelect, P(logical.OpAntiJoin, Any(), Any())), pushSelectLeft),

		expl(21, "SemiJoinToJoin", P(logical.OpSemiJoin, Any(), Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				return existentialToJoin(ctx, b, logical.OpJoin)
			}),

		expl(22, "AntiJoinToLeftJoin", P(logical.OpAntiJoin, Any(), Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				return existentialToJoin(ctx, b, logical.OpLeftJoin)
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
					mapping := branchCols(u, i)
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

// existentialToJoin implements rules 21/22, which require a pure equi-join
// condition: a SEMI b → Project_a(a ⋈ Distinct_joincols(b)) and a ANTI b →
// Project_a(σ(r IS NULL)(a LOJ Distinct_joincols(b))).
func existentialToJoin(ctx *Context, b *memo.BoundExpr, joinOp logical.Op) []*memo.BoundExpr {
	a, bb := b.Kids[0], b.Kids[1]
	colsA := ctx.Memo.Cols(a)
	pairs, rest := logical.EquiJoinCols(b.Node.On, colsA, ctx.Memo.Cols(bb))
	if len(pairs) == 0 || len(rest) > 0 {
		return nil
	}
	rcols := ctx.Memo.ScratchCols(len(pairs))
	for i, p := range pairs {
		rcols[i] = p[1]
	}
	distinct := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpGroupBy, GroupCols: rcols}, bb)
	join := ctx.Memo.BoundNew(logical.Expr{Op: joinOp, On: b.Node.On}, a, distinct)
	if joinOp == logical.OpLeftJoin {
		join = ctx.Memo.BoundNew(logical.Expr{
			Op: logical.OpSelect, Filter: &scalar.IsNull{Kid: scalar.Ref(rcols[0])},
		}, join)
	}
	return ctx.sub(ctx.Memo.BoundNew(logical.Expr{
		Op: logical.OpProject, Projs: colRefProjs(ctx, keptCols(ctx, colsA, colsA)),
	}, join))
}

// pushSelectLeft implements rules 19/20: σ(a SEMI b) → σ(a) SEMI b, and
// likewise for ANTI: the filter reads only a's columns, which are the join's.
func pushSelectLeft(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
	j := b.Kids[0]
	return ctx.sub(ctx.Memo.Bound(j.Node, ctx.Memo.Bound(b.Node, j.Kids[0]), j.Kids[1]))
}

// pushSelectBelowJoin implements rules 6–8: Select(a ⋈ b) → Select(Select(a)
// ⋈ b) (side 0) or Select(a ⋈ Select(b)) (side 1), moving the filter's
// conjuncts over that side's columns below the join.
func pushSelectBelowJoin(ctx *Context, b *memo.BoundExpr, side int) []*memo.BoundExpr {
	join := b.Kids[0]
	within, rest := splitConjuncts(ctx, conjuncts(ctx, b.Node.Filter), ctx.Memo.Cols(join.Kids[side]))
	if len(within) == 0 {
		return nil
	}
	kids := [2]*memo.BoundExpr{join.Kids[0], join.Kids[1]}
	kids[side] = selectOver(ctx, kids[side], within)
	return ctx.sub(selectOver(ctx, ctx.Memo.Bound(join.Node, kids[0], kids[1]), rest))
}

// pullGroupByAboveJoin implements rules 15/16: (GroupBy(a)) ⋈ b →
// GroupBy(a ⋈ b) grouping additionally by every column of b. Preconditions:
// the join predicate must not reference aggregate outputs, and b must be
// duplicate-free: a Get over a table with a primary key in its group.
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
	if !colsFormKey(ctx, bb, ctx.Memo.Cols(bb)) {
		return nil
	}
	colsB := ctx.Memo.Cols(bb)
	gc := append(ctx.Memo.ScratchCols(len(gb.Node.GroupCols) + colsB.Len())[:0], gb.Node.GroupCols...)
	gc = append(gc, keptCols(ctx, colsB, colsB)...)
	newJoin := ctx.Memo.BoundNew(logical.Expr{Op: joinOp, On: b.Node.On}, a, bb)
	return ctx.sub(ctx.Memo.BoundNew(logical.Expr{
		Op: logical.OpGroupBy, GroupCols: gc, Aggs: gb.Node.Aggs,
	}, newJoin))
}

// pushGroupByBelowUnionAll implements rule 25 (local/global aggregation):
// GroupBy(a ∪ b) → GroupBy_global(GroupBy_local(a) ∪ GroupBy_local(b)).
// COUNT becomes SUM of local counts; AVG is not decomposable and blocks the
// rule. So does a union whose branches' groups both hold a GroupBy over their
// grouping columns, as the rule's output does: a local aggregate there removes
// no row, and as it mints columns the rule would feed itself up to the cap.
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
	mappings := [2]map[scalar.ColumnID]scalar.ColumnID{branchCols(u, 0), branchCols(u, 1)}
	var localGC [2][]scalar.ColumnID
	grouped := true
	for i := range mappings {
		localGC[i] = make([]scalar.ColumnID, len(b.Node.GroupCols))
		for j, g := range b.Node.GroupCols {
			c, ok := mappings[i][g]
			if !ok {
				return nil
			}
			localGC[i][j] = c
		}
		grouped = grouped && groupedBy(ctx, u.Kids[i], localGC[i])
	}
	if grouped {
		return nil
	}
	// The new union outputs the grouping columns under their original ids
	// plus one fresh column per aggregate.
	newOut := append([]scalar.ColumnID(nil), b.Node.GroupCols...)
	aggUnionCols := make([]scalar.ColumnID, len(b.Node.Aggs))
	metas := make([]logical.ColumnMeta, len(b.Node.Aggs))
	for k, ag := range b.Node.Aggs {
		metas[k] = logical.ColumnMeta{Name: "la", Type: md.Column(ag.Out).Type}
		if ag.Op == scalar.AggCount || ag.Op == scalar.AggCountStar {
			metas[k].Type = datum.TypeInt
		}
		aggUnionCols[k] = md.AddColumn(metas[k])
		newOut = append(newOut, aggUnionCols[k])
	}
	kids := make([]*memo.BoundExpr, 2)
	inCols := make([][]scalar.ColumnID, 2)
	for i := 0; i < 2; i++ {
		localAggs := make([]scalar.Agg, len(b.Node.Aggs))
		localOuts := make([]scalar.ColumnID, len(b.Node.Aggs))
		for k, ag := range b.Node.Aggs {
			localOuts[k] = md.AddColumn(metas[k])
			var arg scalar.Expr
			if ag.Arg != nil {
				arg = scalar.Remap(ag.Arg, mappings[i])
			}
			localAggs[k] = scalar.Agg{Op: ag.Op, Arg: arg, Out: localOuts[k]}
		}
		kids[i] = ctx.Memo.BoundNew(logical.Expr{
			Op: logical.OpGroupBy, GroupCols: localGC[i], Aggs: localAggs,
		}, u.Kids[i])
		inCols[i] = append(append([]scalar.ColumnID(nil), localGC[i]...), localOuts...)
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
		globalAggs[k] = scalar.Agg{Op: op, Arg: scalar.Ref(aggUnionCols[k]), Out: ag.Out}
	}
	return ctx.sub(ctx.Memo.BoundNew(logical.Expr{
		Op: logical.OpGroupBy, GroupCols: b.Node.GroupCols, Aggs: globalAggs,
	}, newUnion))
}

// branchCols maps a union's output columns to those of its i-th input.
func branchCols(u *memo.BoundExpr, i int) map[scalar.ColumnID]scalar.ColumnID {
	m := make(map[scalar.ColumnID]scalar.ColumnID, len(u.Node.OutCols))
	for j, out := range u.Node.OutCols {
		m[out] = u.Node.InputCols[i][j]
	}
	return m
}

// groupedBy reports whether the bound child's group holds a GroupBy over
// exactly the given grouping columns.
func groupedBy(ctx *Context, b *memo.BoundExpr, cols []scalar.ColumnID) bool {
	want := scalar.NewColSet(cols...)
	for _, e := range ctx.Memo.Group(b.Group).Exprs {
		if e.Op() == logical.OpGroupBy && scalar.NewColSet(e.Node.GroupCols...).Equals(want) {
			return true
		}
	}
	return false
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
	sideCols := ctx.Memo.Cols(join.Kids[side])
	keep := keptCols(ctx, sideCols, needed)
	if len(keep) == 0 || len(keep) == sideCols.Len() {
		return nil
	}
	pruned := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpProject, Projs: colRefProjs(ctx, keep)}, join.Kids[side])
	kids := []*memo.BoundExpr{join.Kids[0], join.Kids[1]}
	kids[side] = pruned
	newJoin := ctx.Memo.Bound(join.Node, kids[0], kids[1])
	return ctx.sub(ctx.Memo.Bound(b.Node, newJoin))
}

// keptCols returns the members of cols that are also in needed, ascending, in
// the memo's scratch; keptCols(ctx, s, s) is s sorted.
func keptCols(ctx *Context, cols, needed scalar.ColSet) []scalar.ColumnID {
	keep := ctx.Memo.ScratchCols(cols.Len())[:0]
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
	right := ctx.Memo.Cols(b.Kids[1])
	needed := scalar.ReferencedCols(b.Node.On)
	keep := keptCols(ctx, right, needed)
	if len(keep) == 0 || len(keep) == right.Len() {
		return nil
	}
	pruned := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpProject, Projs: colRefProjs(ctx, keep)}, b.Kids[1])
	return ctx.sub(ctx.Memo.Bound(b.Node, b.Kids[0], pruned))
}
