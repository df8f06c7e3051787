package physical

import (
	"strings"
	"testing"

	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

func scanNode(table string, cols ...scalar.ColumnID) *Expr {
	return &Expr{Op: OpScan, Table: table, Cols: cols}
}

func TestOutputColsJoins(t *testing.T) {
	l := scanNode("a", 1, 2)
	r := scanNode("b", 3)
	inner := &Expr{Op: OpHashJoin, JoinType: JoinInner, Children: []*Expr{l, r}}
	if got := inner.OutputCols(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("inner join outputs %v", got)
	}
	semi := &Expr{Op: OpHashJoin, JoinType: JoinSemi, Children: []*Expr{l, r}}
	if got := semi.OutputCols(); len(got) != 2 {
		t.Errorf("semi join outputs %v", got)
	}
	anti := &Expr{Op: OpNLJoin, JoinType: JoinAnti, Children: []*Expr{l, r}}
	if got := anti.OutputCols(); len(got) != 2 {
		t.Errorf("anti join outputs %v", got)
	}
}

func TestOutputColsAggAndProject(t *testing.T) {
	in := scanNode("a", 1, 2)
	agg := &Expr{Op: OpHashAgg, Children: []*Expr{in},
		GroupCols: []scalar.ColumnID{1},
		Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: 9}}}
	if got := agg.OutputCols(); len(got) != 2 || got[1] != 9 {
		t.Errorf("agg outputs %v", got)
	}
	proj := &Expr{Op: OpProject, Children: []*Expr{in},
		Projs: []logical.ProjItem{{Out: 7, E: &scalar.ColRef{ID: 1}}}}
	if got := proj.OutputCols(); len(got) != 1 || got[0] != 7 {
		t.Errorf("project outputs %v", got)
	}
	concat := &Expr{Op: OpConcat, Children: []*Expr{in, in}, OutCols: []scalar.ColumnID{5}}
	if got := concat.OutputCols(); len(got) != 1 || got[0] != 5 {
		t.Errorf("concat outputs %v", got)
	}
}

func TestHashDistinguishesPlans(t *testing.T) {
	l := scanNode("a", 1)
	r := scanNode("b", 2)
	on := &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 2}}
	hj := &Expr{Op: OpHashJoin, Children: []*Expr{l, r}, On: on,
		EquiLeft: []scalar.ColumnID{1}, EquiRight: []scalar.ColumnID{2}}
	nl := &Expr{Op: OpNLJoin, Children: []*Expr{l, r}, On: on}
	if hj.Hash() == nl.Hash() {
		t.Error("different operators must hash differently")
	}
	hj2 := &Expr{Op: OpHashJoin, Children: []*Expr{r, l}, On: on,
		EquiLeft: []scalar.ColumnID{2}, EquiRight: []scalar.ColumnID{1}}
	if hj.Hash() == hj2.Hash() {
		t.Error("commuted children must hash differently")
	}
	// Cost annotations must NOT affect the hash.
	withCost := &Expr{Op: OpHashJoin, Children: []*Expr{l, r}, On: on,
		EquiLeft: []scalar.ColumnID{1}, EquiRight: []scalar.ColumnID{2}, Cost: 123, Rows: 9}
	if hj.Hash() != withCost.Hash() {
		t.Error("cost annotations must not change the plan hash")
	}
}

func TestStringAndCount(t *testing.T) {
	l := scanNode("a", 1)
	f := &Expr{Op: OpFilter, Children: []*Expr{l}, Filter: scalar.TrueExpr(), Rows: 3, Cost: 4}
	s := f.String()
	if !strings.Contains(s, "Filter") || !strings.Contains(s, "Scan(a)") {
		t.Errorf("String output: %s", s)
	}
	if f.CountOps() != 2 {
		t.Errorf("CountOps = %d", f.CountOps())
	}
}
