package logical

import (
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/scalar"
)

func testCatalog() *catalog.Catalog {
	return catalog.LoadTPCH(catalog.DefaultTPCHConfig())
}

func mustTable(t *testing.T, md *Metadata, name string) *Expr {
	t.Helper()
	e, err := md.AddTable(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMetadataAddTable(t *testing.T) {
	md := NewMetadata(testCatalog())
	a := mustTable(t, md, "nation")
	b := mustTable(t, md, "nation")
	if a.Cols[0] == b.Cols[0] {
		t.Error("two scans of the same table must get distinct column ids")
	}
	cm := md.Column(a.Cols[1])
	if cm.Table != "nation" || cm.TableCol != "n_name" {
		t.Errorf("column meta wrong: %+v", cm)
	}
	if b.Cols[len(b.Cols)-1] != 6 {
		t.Errorf("last column id = %d, want 6: two scans of a 3-column table", b.Cols[len(b.Cols)-1])
	}
	if _, err := md.AddTable("nope"); err == nil {
		t.Error("AddTable of a missing table must error")
	}
}

func TestMetadataBaseColumn(t *testing.T) {
	md := NewMetadata(testCatalog())
	get := mustTable(t, md, "region")
	tbl, idx, ok := md.BaseColumn(get.Cols[1])
	if !ok || tbl.Name != "region" || idx != 1 {
		t.Errorf("BaseColumn = %v %d %v", tbl, idx, ok)
	}
	computed := md.AddColumn(ColumnMeta{Name: "x"})
	if _, _, ok := md.BaseColumn(computed); ok {
		t.Error("computed column has no base")
	}
}

// TestMetadataTypeEnv: the type checker's view of the metadata gives each
// allocated column its declared type and calls any other id unknown.
func TestMetadataTypeEnv(t *testing.T) {
	md := NewMetadata(testCatalog())
	get := mustTable(t, md, "region")
	env := md.TypeEnv()
	computed := md.AddColumn(ColumnMeta{Name: "x", Type: datum.TypeFloat})
	for _, id := range append(get.Cols, computed) {
		if typ, ok := env(id); !ok || typ != md.Column(id).Type {
			t.Errorf("c%d: type %v, %v; want %v", id, typ, ok, md.Column(id).Type)
		}
	}
	for _, id := range []scalar.ColumnID{0, -1, computed + 1} {
		if typ, ok := env(id); ok || typ != datum.TypeUnknown {
			t.Errorf("c%d: type %v, %v; want unknown", id, typ, ok)
		}
	}
}

func TestOutputColsPerOperator(t *testing.T) {
	md := NewMetadata(testCatalog())
	r := mustTable(t, md, "region")
	n := mustTable(t, md, "nation")

	join := &Expr{Op: OpJoin, Children: []*Expr{n, r},
		On: &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: n.Cols[2]}, R: &scalar.ColRef{ID: r.Cols[0]}}}
	if got := len(join.OutputCols()); got != 5 {
		t.Errorf("join outputs %d cols, want 5", got)
	}
	semi := &Expr{Op: OpSemiJoin, Children: []*Expr{n, r}, On: join.On}
	if got := len(semi.OutputCols()); got != 3 {
		t.Errorf("semi join outputs %d cols, want 3 (left only)", got)
	}
	sel := &Expr{Op: OpSelect, Children: []*Expr{join}, Filter: scalar.TrueExpr()}
	if len(sel.OutputCols()) != 5 {
		t.Error("select must pass through")
	}
	agg := md.AddColumn(ColumnMeta{Name: "agg"})
	gb := &Expr{Op: OpGroupBy, Children: []*Expr{join},
		GroupCols: []scalar.ColumnID{n.Cols[2]},
		Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: agg}}}
	outs := gb.OutputCols()
	if len(outs) != 2 || outs[0] != n.Cols[2] || outs[1] != agg {
		t.Errorf("groupby outputs %v", outs)
	}
	proj := &Expr{Op: OpProject, Children: []*Expr{gb},
		Projs: []ProjItem{{Out: agg, E: &scalar.ColRef{ID: agg}}}}
	if len(proj.OutputCols()) != 1 {
		t.Error("project output wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	md := NewMetadata(testCatalog())
	r := mustTable(t, md, "region")
	sel := &Expr{Op: OpSelect, Children: []*Expr{r}, Filter: scalar.TrueExpr()}
	cp := sel.Clone()
	cp.Children[0].Table = "nation"
	cp.Children[0].Cols[0] = 999
	if sel.Children[0].Table != "region" || sel.Children[0].Cols[0] == 999 {
		t.Error("Clone shares child state")
	}
}

func TestCountOpsAndWalk(t *testing.T) {
	md := NewMetadata(testCatalog())
	r := mustTable(t, md, "region")
	n := mustTable(t, md, "nation")
	join := &Expr{Op: OpJoin, Children: []*Expr{n, r}, On: scalar.TrueExpr()}
	sel := &Expr{Op: OpSelect, Children: []*Expr{join}, Filter: scalar.TrueExpr()}
	if sel.CountOps() != 4 {
		t.Errorf("CountOps = %d, want 4", sel.CountOps())
	}
	var ops []Op
	sel.Walk(func(e *Expr) { ops = append(ops, e.Op) })
	if len(ops) != 4 || ops[0] != OpSelect || ops[1] != OpJoin {
		t.Errorf("Walk order: %v", ops)
	}
	if !sel.ContainsOp(OpGet) || sel.ContainsOp(OpGroupBy) {
		t.Error("ContainsOp wrong")
	}
}

func TestRejectsNullsOn(t *testing.T) {
	cols := scalar.NewColSet(1, 2)
	cmp := &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: 1}, R: &scalar.Const{}}
	other := &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: 9}, R: &scalar.Const{}}
	isNull := &scalar.IsNull{Kid: &scalar.ColRef{ID: 1}}

	if !RejectsNullsOn(cmp, cols) {
		t.Error("comparison on col 1 rejects NULLs")
	}
	if RejectsNullsOn(other, cols) {
		t.Error("comparison on col 9 says nothing about cols 1,2")
	}
	if RejectsNullsOn(isNull, cols) {
		t.Error("IS NULL does not reject NULLs")
	}
	// AND: any null-rejecting conjunct suffices.
	if !RejectsNullsOn(&scalar.And{Kids: []scalar.Expr{isNull, cmp}}, cols) {
		t.Error("AND with a rejecting conjunct rejects")
	}
	// OR: every disjunct must reject.
	if RejectsNullsOn(&scalar.Or{Kids: []scalar.Expr{cmp, isNull}}, cols) {
		t.Error("OR with IS NULL disjunct does not reject")
	}
	if !RejectsNullsOn(&scalar.Or{Kids: []scalar.Expr{cmp, cmp}}, cols) {
		t.Error("OR of rejecting disjuncts rejects")
	}
}

func TestEquiJoinCols(t *testing.T) {
	left := scalar.NewColSet(1, 2)
	right := scalar.NewColSet(3, 4)
	eq1 := &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 3}}
	eq2 := &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 4}, R: &scalar.ColRef{ID: 2}} // swapped sides
	lt := &scalar.Cmp{Op: scalar.CmpLT, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 4}}
	sameSide := &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 2}}
	on := &scalar.And{Kids: []scalar.Expr{eq1, eq2, lt, sameSide}}

	pairs, rest := EquiJoinCols(on, left, right)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0] != [2]scalar.ColumnID{1, 3} || pairs[1] != [2]scalar.ColumnID{2, 4} {
		t.Errorf("pairs not normalized left-first: %v", pairs)
	}
	if len(rest) != 2 {
		t.Errorf("remainder = %d, want 2", len(rest))
	}
}

func TestAggsReferenceOnly(t *testing.T) {
	allowed := scalar.NewColSet(1)
	ok := []scalar.Agg{{Op: scalar.AggSum, Arg: &scalar.ColRef{ID: 1}}, {Op: scalar.AggCountStar}}
	bad := []scalar.Agg{{Op: scalar.AggSum, Arg: &scalar.ColRef{ID: 2}}}
	if !AggsReferenceOnly(ok, allowed) || AggsReferenceOnly(bad, allowed) {
		t.Error("AggsReferenceOnly wrong")
	}
}

func TestOpProperties(t *testing.T) {
	if OpGet.Arity() != 0 || OpJoin.Arity() != 2 || OpSelect.Arity() != 1 {
		t.Error("Arity wrong")
	}
	for _, op := range []Op{OpJoin, OpLeftJoin, OpSemiJoin, OpAntiJoin} {
		if !op.IsJoin() {
			t.Errorf("%s should be a join", op)
		}
	}
	if OpGroupBy.IsJoin() {
		t.Error("GroupBy is not a join")
	}
	if OpUnionAll.String() != "UnionAll" {
		t.Error("String wrong")
	}
}
