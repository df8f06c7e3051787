package rules

import (
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/scalar"
)

// Extension rules implement §7's "rules whose exercising is dependent on the
// properties of the schema as well as the database instance": they consult
// declared foreign keys, not just the logical tree. They ship outside
// DefaultRegistry so that the paper's 30-rule experiments are unaffected;
// build a registry with RegistryWithExtensions to enable them.
//
// IDs 31+ continue the exploration range.

// ExtensionRules returns the schema-dependent exploration rules.
func ExtensionRules() []ExplorationRule {
	return []ExplorationRule{
		expl(31, "EliminateFKJoin", P(logical.OpProject, P(logical.OpJoin, Any(), Any())),
			applyEliminateFKJoin).producing(P(logical.OpProject, Any())),
		expl(32, "EliminateFKSemiJoin", P(logical.OpSemiJoin, Any(), Any()),
			applyEliminateFKSemiJoin).producing(P(logical.OpProject, Any())),
		expl(33, "OrExpansion", P(logical.OpSelect, Any()),
			applyOrExpansion).producing(
			P(logical.OpUnionAll, P(logical.OpSelect, Any()), P(logical.OpSelect, Any()))),
		expl(34, "SplitSelect", P(logical.OpSelect, Any()),
			applySplitSelect).producing(P(logical.OpSelect, P(logical.OpSelect, Any()))),
	}
}

// RegistryWithExtensions returns the default rule set plus the extension
// pack.
func RegistryWithExtensions() *Registry {
	var extra []Rule
	for _, r := range ExtensionRules() {
		extra = append(extra, r)
	}
	return RegistryWith(extra...)
}

// fkJoinIsLossless reports whether the equi predicate equates a declared
// foreign key of the fact Get with the primary key of the dim Get, so that
// every fact row joins exactly one dim row (FK integrity plus PK
// uniqueness). Both sides must be base-table Gets for the schema metadata to
// apply.
func fkJoinIsLossless(ctx *Context, fact, dim *memo.BoundExpr, pairs [][2]scalar.ColumnID) bool {
	factGet := leafGet(ctx, fact)
	dimGet := leafGet(ctx, dim)
	if factGet == nil || dimGet == nil {
		return false
	}
	factTbl, err := ctx.MD().Catalog().Table(factGet.Node.Table)
	if err != nil {
		return false
	}
	dimTbl, err := ctx.MD().Catalog().Table(dimGet.Node.Table)
	if err != nil {
		return false
	}
	for _, fk := range factTbl.ForeignKeys {
		if fk.RefTable != dimTbl.Name || len(fk.Columns) != len(pairs) {
			continue
		}
		// The referenced columns must be the dim's primary key.
		if len(fk.RefColumns) != len(dimTbl.PrimaryKey) {
			continue
		}
		pkOK := true
		for i := range fk.RefColumns {
			if fk.RefColumns[i] != dimTbl.PrimaryKey[i] {
				pkOK = false
				break
			}
		}
		if !pkOK {
			continue
		}
		// Every pair must map fk.Columns[i] -> fk.RefColumns[i].
		matched := 0
		for i, fc := range fk.Columns {
			fidx := factTbl.ColumnIndex(fc)
			ridx := dimTbl.ColumnIndex(fk.RefColumns[i])
			if fidx < 0 || ridx < 0 {
				break
			}
			want := [2]scalar.ColumnID{factGet.Node.Cols[fidx], dimGet.Node.Cols[ridx]}
			for _, p := range pairs {
				if p == want {
					matched++
					break
				}
			}
		}
		if matched == len(fk.Columns) {
			return true
		}
	}
	return false
}

// leafGet returns the single Get expression of a bound leaf's group, if any.
func leafGet(ctx *Context, b *memo.BoundExpr) *memo.MExpr {
	if !b.IsLeaf() {
		if b.Node.Op == logical.OpGet {
			return b.Src
		}
		return nil
	}
	for _, e := range ctx.Memo.Group(b.Group).Exprs {
		if e.Op() == logical.OpGet {
			return e
		}
	}
	return nil
}

// applyEliminateFKJoin: Project(fact ⋈ dim) → Project(fact) when the join
// equates the fact's declared FK with the dim's PK and the projection reads
// only fact columns. FK integrity guarantees every fact row matches; PK
// uniqueness guarantees it matches once — the join is a no-op.
func applyEliminateFKJoin(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
	join := b.Kids[0]
	var out []*memo.BoundExpr
	for side := 0; side < 2; side++ {
		fact, dim := join.Kids[side], join.Kids[1-side]
		factCols := ctx.Memo.Cols(fact)
		var needed scalar.ColSet
		for _, it := range b.Node.Projs {
			it.E.Cols(&needed)
		}
		if !needed.SubsetOf(factCols) {
			continue
		}
		pairs, rest := logical.EquiJoinCols(join.Node.On, factCols, ctx.Memo.Cols(dim))
		if len(pairs) == 0 || len(rest) > 0 {
			continue
		}
		if !fkJoinIsLossless(ctx, fact, dim, pairs) {
			continue
		}
		out = append(out, ctx.Memo.BoundNew(logical.Expr{
			Op: logical.OpProject, Projs: b.Node.Projs,
		}, fact))
	}
	return out
}

// applyEliminateFKSemiJoin: fact SEMI dim on fk = pk → every fact row has a
// match, so the semi join passes everything through (emitted as an identity
// projection, since a bare group reference cannot be a substitute).
func applyEliminateFKSemiJoin(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
	fact, dim := b.Kids[0], b.Kids[1]
	factCols := ctx.Memo.Cols(fact)
	pairs, rest := logical.EquiJoinCols(b.Node.On, factCols, ctx.Memo.Cols(dim))
	if len(pairs) == 0 || len(rest) > 0 {
		return nil
	}
	if !fkJoinIsLossless(ctx, fact, dim, pairs) {
		return nil
	}
	return ctx.sub(ctx.Memo.BoundNew(logical.Expr{
		Op: logical.OpProject, Projs: colRefProjs(ctx, keptCols(ctx, factCols, factCols)),
	}, fact))
}

// applyOrExpansion: σ(f1 ∨ f2)(a) → σ(f1)(a) ∪ALL σ(f2 ∧ ¬T(f1))(a), where
// ¬T(f1) = "f1 is not true" = (NOT f1) OR (f1 IS NULL). The branches are
// disjoint, so UNION ALL preserves multiplicities under SQL three-valued
// logic.
func applyOrExpansion(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
	or, ok := b.Node.Filter.(*scalar.Or)
	if !ok || len(or.Kids) < 2 {
		return nil
	}
	f1 := or.Kids[0]
	f2 := scalar.Expr(&scalar.Or{Kids: or.Kids[1:]})
	if len(or.Kids) == 2 {
		f2 = or.Kids[1]
	}
	child := b.Kids[0]
	cols := ctx.Memo.Cols(child).Sorted()
	notTrue := &scalar.Or{Kids: []scalar.Expr{
		&scalar.Not{Kid: f1},
		&scalar.IsNull{Kid: f1},
	}}
	left := ctx.Memo.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: f1}, child)
	right := ctx.Memo.BoundNew(logical.Expr{
		Op: logical.OpSelect, Filter: &scalar.And{Kids: []scalar.Expr{f2, notTrue}},
	}, child)
	return ctx.sub(ctx.Memo.BoundNew(logical.Expr{
		Op:        logical.OpUnionAll,
		OutCols:   cols,
		InputCols: [][]scalar.ColumnID{cols, cols},
	}, left, right))
}

// applySplitSelect: σ(f1 ∧ f2)(a) → σ(f1)(σ(f2)(a)) — the inverse of
// SelectMerge, included to widen the search space around selections.
func applySplitSelect(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
	conj := scalar.Conjuncts(b.Node.Filter)
	if len(conj) < 2 {
		return nil
	}
	inner := ctx.Memo.BoundNew(logical.Expr{
		Op: logical.OpSelect, Filter: scalar.MakeAnd(conj[1:]),
	}, b.Kids[0])
	return ctx.sub(ctx.Memo.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: conj[0]}, inner))
}
