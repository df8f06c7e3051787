package refengine_test

import (
	"errors"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/refengine"
	"qtrtest/internal/scalar"
)

// Budgets for both sides of the differential: tight enough that a chain of
// nested-loop joins over the tiny catalog cannot run away, loose enough that
// ordinary programs complete. A trip on either side skips the comparison —
// the budget-parity contract (DESIGN.md §15) promises only that trips never
// flip a verdict, not that both engines trip together.
const (
	fuzzMaxRows = 4096
	fuzzMaxWork = 1 << 16
)

// FuzzRefEngineDiff is the native differential fuzz target: an arbitrary
// byte program builds a random logical tree over a tiny fixed TPC-H catalog,
// which is then evaluated by the reference interpreter (on the tree) and by
// both production engines — the batch engine campaigns run on and the row
// engine — on the canonical lowering of the same tree. Each must agree with
// the reference on every program, positionally on the sort-key slots where
// the root is ordered and under result normalization elsewhere. The builder
// is type-safe by construction — arithmetic and SUM/AVG are only applied to
// INT columns — so no side can hit a runtime type error and any error besides
// a budget trip fails the target.
func FuzzRefEngineDiff(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 2, 1, 3, 2})
	f.Add([]byte{3, 5, 0, 0, 4, 1, 1, 6})
	f.Add([]byte{7, 3, 3, 9, 250, 11, 0, 42, 5, 5})
	f.Add([]byte{2, 6, 1, 6, 3, 6, 5, 8, 8, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{5, 9, 2, 9, 4, 7, 7, 0, 0, 255, 128, 64, 32, 16})
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.01, Seed: 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		md := logical.NewMetadata(cat)
		tree := buildDiffTree(md, prog)
		if tree == nil {
			return
		}
		refRows, refErr := refengine.Eval(tree, cat, refengine.Limits{MaxRows: fuzzMaxRows, MaxWork: fuzzMaxWork})
		if errors.Is(refErr, refengine.ErrBudget) {
			return
		}
		plan := exec.Lower(tree)
		for _, eng := range []exec.Engine{exec.EngineBatch, exec.EngineRow} {
			rows, err := exec.RunEngine(eng, plan, cat, fuzzMaxRows, fuzzMaxWork)
			if errors.Is(err, exec.ErrRowLimit) {
				continue
			}
			if refErr != nil || err != nil {
				t.Fatalf("engine error on a type-safe tree: ref=%v %v=%v\ntree:\n%s", refErr, eng, err, tree)
			}
			verdict, detail := exec.CompareResults(rows, exec.RootOrder(plan), refRows, exec.RootOrder(plan))
			if verdict == exec.VerdictMismatch {
				t.Fatalf("ref and %v engines disagree: %s\ntree:\n%s", eng, detail, tree)
			}
		}
	})
}

// buildDiffTree interprets prog as a construction script over the catalog:
// the first byte picks a base table, then every pair of bytes wraps the tree
// in one more operator. It mirrors the sqlgen fuzz builder but covers the
// full logical vocabulary the reference engine implements — all four join
// variants, UNION ALL, every aggregate, arithmetic projections — while
// keeping every expression well-typed (numeric operations only on INT
// columns).
func buildDiffTree(md *logical.Metadata, prog []byte) *logical.Expr {
	tables := md.Catalog().TableNames()
	if len(prog) == 0 || len(tables) == 0 {
		return nil
	}
	scan := func(b byte) *logical.Expr {
		e, err := md.AddTable(tables[int(b)%len(tables)])
		if err != nil {
			return nil
		}
		return e
	}
	intCols := func(cols []scalar.ColumnID) []scalar.ColumnID {
		var out []scalar.ColumnID
		for _, c := range cols {
			if md.Column(c).Type == datum.TypeInt {
				out = append(out, c)
			}
		}
		return out
	}
	tree := scan(prog[0])
	if tree == nil {
		return nil
	}
	prog = prog[1:]
	for len(prog) >= 2 {
		op, arg := prog[0], prog[1]
		prog = prog[2:]
		cols := tree.OutputCols()
		if len(cols) == 0 {
			break
		}
		pick := cols[int(arg)%len(cols)]
		switch op % 9 {
		case 0: // filter on one output column
			cmpOp := []scalar.CmpOp{scalar.CmpGT, scalar.CmpLT, scalar.CmpEQ, scalar.CmpNE}[int(arg)%4]
			tree = &logical.Expr{
				Op:       logical.OpSelect,
				Filter:   &scalar.Cmp{Op: cmpOp, L: &scalar.ColRef{ID: pick}, R: &scalar.Const{D: datum.NewInt(int64(arg))}},
				Children: []*logical.Expr{tree},
			}
		case 1: // project a prefix, plus an arithmetic column when an INT exists
			n := 1 + int(arg)%len(cols)
			projs := make([]logical.ProjItem, 0, n+1)
			for i := 0; i < n; i++ {
				projs = append(projs, logical.ProjItem{Out: cols[i], E: &scalar.ColRef{ID: cols[i]}})
			}
			if ints := intCols(cols); len(ints) > 0 {
				src := ints[int(arg)%len(ints)]
				out := md.AddColumn(logical.ColumnMeta{Type: datum.TypeInt})
				projs = append(projs, logical.ProjItem{
					Out: out,
					E:   &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: src}, R: &scalar.Const{D: datum.NewInt(int64(arg))}},
				})
			}
			tree = &logical.Expr{Op: logical.OpProject, Projs: projs, Children: []*logical.Expr{tree}}
		case 2: // group by one column with the full aggregate set over an INT
			aggs := []scalar.Agg{{Op: scalar.AggCountStar, Out: md.AddColumn(logical.ColumnMeta{Type: datum.TypeInt})}}
			if ints := intCols(cols); len(ints) > 0 {
				src := &scalar.ColRef{ID: ints[int(arg)%len(ints)]}
				aggs = append(aggs,
					scalar.Agg{Op: scalar.AggSum, Arg: src, Out: md.AddColumn(logical.ColumnMeta{Type: datum.TypeInt})},
					scalar.Agg{Op: scalar.AggMin, Arg: src, Out: md.AddColumn(logical.ColumnMeta{Type: datum.TypeInt})},
					scalar.Agg{Op: scalar.AggMax, Arg: src, Out: md.AddColumn(logical.ColumnMeta{Type: datum.TypeInt})},
					scalar.Agg{Op: scalar.AggAvg, Arg: src, Out: md.AddColumn(logical.ColumnMeta{Type: datum.TypeFloat})},
					scalar.Agg{Op: scalar.AggCount, Arg: src, Out: md.AddColumn(logical.ColumnMeta{Type: datum.TypeInt})},
				)
			}
			var groupCols []scalar.ColumnID
			if arg%3 != 0 { // every third grouping is a scalar aggregate
				groupCols = []scalar.ColumnID{pick}
			}
			tree = &logical.Expr{
				Op: logical.OpGroupBy, GroupCols: groupCols, Aggs: aggs,
				Children: []*logical.Expr{tree},
			}
		case 3: // sort on one column
			tree = &logical.Expr{
				Op:       logical.OpSort,
				Keys:     []logical.SortKey{{Col: pick, Desc: arg%2 == 1}},
				Children: []*logical.Expr{tree},
			}
		case 4: // limit
			tree = &logical.Expr{Op: logical.OpLimit, N: int64(arg), Children: []*logical.Expr{tree}}
		case 5, 6, 7: // join variants against a fresh base table
			other := scan(arg)
			if other == nil {
				continue
			}
			oc := other.OutputCols()
			jop := []logical.Op{logical.OpJoin, logical.OpLeftJoin, logical.OpSemiJoin, logical.OpAntiJoin}[int(op)%4]
			tree = &logical.Expr{
				Op:       jop,
				On:       &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: pick}, R: &scalar.ColRef{ID: oc[int(arg)%len(oc)]}},
				Children: []*logical.Expr{tree, other},
			}
		case 8: // union the tree with a second scan of compatible width
			other := scan(arg)
			if other == nil {
				continue
			}
			oc := other.OutputCols()
			n := len(cols)
			if len(oc) < n {
				n = len(oc)
			}
			// Pair only positions whose branch types agree, so the union
			// column's declared type is truthful and downstream arithmetic
			// stays well-typed.
			var outCols, in0, in1 []scalar.ColumnID
			for i := 0; i < n; i++ {
				if md.Column(cols[i]).Type != md.Column(oc[i]).Type {
					continue
				}
				outCols = append(outCols, md.AddColumn(logical.ColumnMeta{Type: md.Column(cols[i]).Type}))
				in0, in1 = append(in0, cols[i]), append(in1, oc[i])
			}
			if len(outCols) == 0 {
				continue
			}
			tree = &logical.Expr{
				Op: logical.OpUnionAll, OutCols: outCols,
				InputCols: [][]scalar.ColumnID{in0, in1},
				Children:  []*logical.Expr{tree, other},
			}
		}
	}
	return tree
}
