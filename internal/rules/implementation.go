package rules

import (
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// implRule packages one implementation rule.
type implRule struct {
	info
	impl func(ctx *Context, e *memo.MExpr) []*physical.Expr
}

// Implement implements ImplementationRule.
func (r *implRule) Implement(ctx *Context, e *memo.MExpr) []*physical.Expr {
	return r.impl(ctx, e)
}

func impl(id ID, name string, pattern *Pattern, fn func(*Context, *memo.MExpr) []*physical.Expr) ImplementationRule {
	return &implRule{
		info: info{id: id, name: name, kind: KindImplementation, pattern: pattern},
		impl: fn,
	}
}

// equiKeys extracts hash/merge-join key columns from a join predicate; ok is
// false when the predicate has no equality conjunct between the two sides.
func equiKeys(ctx *Context, e *memo.MExpr) (left, right []scalar.ColumnID, ok bool) {
	l := ctx.Memo.Group(e.Kids[0]).Cols
	r := ctx.Memo.Group(e.Kids[1]).Cols
	// Inlined equi-pair extraction (EquiJoinCols without the pairs and
	// remainder slices): this runs per join expression per costing pass.
	// The single-comparison predicate gets a no-slice fast path, and both
	// key slices share one backing allocation (count pass, then fill).
	var single [1]scalar.Expr
	var conj []scalar.Expr
	if _, isAnd := e.Node.On.(*scalar.And); isAnd {
		conj = scalar.Conjuncts(e.Node.On)
	} else {
		single[0] = e.Node.On
		conj = single[:]
	}
	crossSide := func(c scalar.Expr) (lid, rid scalar.ColumnID, ok bool) {
		cmp, cok := c.(*scalar.Cmp)
		if !cok || cmp.Op != scalar.CmpEQ {
			return 0, 0, false
		}
		lref, lok := cmp.L.(*scalar.ColRef)
		rref, rok := cmp.R.(*scalar.ColRef)
		if !lok || !rok {
			return 0, 0, false
		}
		switch {
		case l.Contains(lref.ID) && r.Contains(rref.ID):
			return lref.ID, rref.ID, true
		case l.Contains(rref.ID) && r.Contains(lref.ID):
			return rref.ID, lref.ID, true
		}
		return 0, 0, false
	}
	n := 0
	for _, c := range conj {
		if _, _, cok := crossSide(c); cok {
			n++
		}
	}
	if n == 0 {
		return nil, nil, false
	}
	buf := make([]scalar.ColumnID, 2*n)
	left, right = buf[:0:n], buf[n:n:2*n]
	for _, c := range conj {
		if lid, rid, cok := crossSide(c); cok {
			left = append(left, lid)
			right = append(right, rid)
		}
	}
	return left, right, true
}

func hashJoinImpl(id ID, name string, op logical.Op, jt physical.JoinType) ImplementationRule {
	return impl(id, name, P(op, Any(), Any()), func(ctx *Context, e *memo.MExpr) []*physical.Expr {
		l, r, ok := equiKeys(ctx, e)
		if !ok {
			return nil
		}
		return ctx.one(physical.Expr{
			Op: physical.OpHashJoin, JoinType: jt,
			On: e.Node.On, EquiLeft: l, EquiRight: r,
		})
	})
}

func nlJoinImpl(id ID, name string, op logical.Op, jt physical.JoinType) ImplementationRule {
	return impl(id, name, P(op, Any(), Any()), func(ctx *Context, e *memo.MExpr) []*physical.Expr {
		return ctx.one(physical.Expr{
			Op: physical.OpNLJoin, JoinType: jt, On: e.Node.On,
		})
	})
}

// ImplementationRules returns the implementation (physical) rules in ID
// order. IDs start at 101 so that exploration and implementation rule IDs
// never collide.
func ImplementationRules() []ImplementationRule {
	return []ImplementationRule{
		impl(101, "GetToScan", P(logical.OpGet), func(ctx *Context, e *memo.MExpr) []*physical.Expr {
			return ctx.one(physical.Expr{Op: physical.OpScan, Table: e.Node.Table, Cols: e.Node.Cols})
		}),

		impl(102, "SelectToFilter", P(logical.OpSelect, Any()), func(ctx *Context, e *memo.MExpr) []*physical.Expr {
			return ctx.one(physical.Expr{Op: physical.OpFilter, Filter: e.Node.Filter})
		}),

		impl(103, "ProjectToProject", P(logical.OpProject, Any()), func(ctx *Context, e *memo.MExpr) []*physical.Expr {
			return ctx.one(physical.Expr{Op: physical.OpProject, Projs: e.Node.Projs})
		}),

		hashJoinImpl(104, "JoinToHashJoin", logical.OpJoin, physical.JoinInner),
		nlJoinImpl(105, "JoinToNLJoin", logical.OpJoin, physical.JoinInner),

		impl(106, "JoinToMergeJoin", P(logical.OpJoin, Any(), Any()), func(ctx *Context, e *memo.MExpr) []*physical.Expr {
			l, r, ok := equiKeys(ctx, e)
			if !ok {
				return nil
			}
			return ctx.one(physical.Expr{
				Op: physical.OpMergeJoin, JoinType: physical.JoinInner,
				On: e.Node.On, EquiLeft: l, EquiRight: r,
			})
		}),

		hashJoinImpl(107, "LeftJoinToHashJoin", logical.OpLeftJoin, physical.JoinLeft),
		nlJoinImpl(108, "LeftJoinToNLJoin", logical.OpLeftJoin, physical.JoinLeft),
		hashJoinImpl(109, "SemiJoinToHashJoin", logical.OpSemiJoin, physical.JoinSemi),
		nlJoinImpl(110, "SemiJoinToNLJoin", logical.OpSemiJoin, physical.JoinSemi),
		hashJoinImpl(111, "AntiJoinToHashJoin", logical.OpAntiJoin, physical.JoinAnti),
		nlJoinImpl(112, "AntiJoinToNLJoin", logical.OpAntiJoin, physical.JoinAnti),

		impl(113, "GroupByToHashAgg", P(logical.OpGroupBy, Any()), func(ctx *Context, e *memo.MExpr) []*physical.Expr {
			return ctx.one(physical.Expr{
				Op: physical.OpHashAgg, GroupCols: e.Node.GroupCols, Aggs: e.Node.Aggs,
			})
		}),

		impl(114, "GroupByToStreamAgg", P(logical.OpGroupBy, Any()), func(ctx *Context, e *memo.MExpr) []*physical.Expr {
			// Sorting by zero columns is meaningless; scalar aggregation is
			// handled by the hash implementation.
			if len(e.Node.GroupCols) == 0 {
				return nil
			}
			return ctx.one(physical.Expr{
				Op: physical.OpSortAgg, GroupCols: e.Node.GroupCols, Aggs: e.Node.Aggs,
			})
		}),

		impl(115, "UnionAllToConcat", P(logical.OpUnionAll, Any(), Any()), func(ctx *Context, e *memo.MExpr) []*physical.Expr {
			return ctx.one(physical.Expr{
				Op: physical.OpConcat, OutCols: e.Node.OutCols, InputCols: e.Node.InputCols,
			})
		}),

		impl(116, "SortToSort", P(logical.OpSort, Any()), func(ctx *Context, e *memo.MExpr) []*physical.Expr {
			return ctx.one(physical.Expr{Op: physical.OpSort, Keys: e.Node.Keys})
		}),

		impl(117, "LimitToLimit", P(logical.OpLimit, Any()), func(ctx *Context, e *memo.MExpr) []*physical.Expr {
			return ctx.one(physical.Expr{Op: physical.OpLimit, N: e.Node.N})
		}),
	}
}

// DefaultRegistry returns the full rule set of the optimizer: 30 exploration
// rules and 17 implementation rules.
func DefaultRegistry() *Registry {
	var all []Rule
	for _, r := range ExplorationRules() {
		all = append(all, r)
	}
	for _, r := range ImplementationRules() {
		all = append(all, r)
	}
	return NewRegistry(all...)
}
