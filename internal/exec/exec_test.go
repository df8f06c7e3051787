package exec

import (
	"fmt"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// testCatalog builds two small tables with NULLs:
//
//	t1(a, b):  (1,10) (2,20) (3,NULL) (NULL,40)
//	t2(x, y):  (1,'one') (1,'uno') (3,'three') (NULL,'null')
func testCatalog() *catalog.Catalog {
	c := catalog.New()
	t1 := &catalog.Table{
		Name: "t1",
		Columns: []catalog.Column{
			{Name: "a", Type: datum.TypeInt}, {Name: "b", Type: datum.TypeInt},
		},
		PrimaryKey: []string{"a"},
		Rows: []datum.Row{
			{datum.NewInt(1), datum.NewInt(10)},
			{datum.NewInt(2), datum.NewInt(20)},
			{datum.NewInt(3), datum.Null},
			{datum.Null, datum.NewInt(40)},
		},
	}
	t1.ComputeStats()
	c.Add(t1)
	t2 := &catalog.Table{
		Name: "t2",
		Columns: []catalog.Column{
			{Name: "x", Type: datum.TypeInt}, {Name: "y", Type: datum.TypeString},
		},
		Rows: []datum.Row{
			{datum.NewInt(1), datum.NewString("one")},
			{datum.NewInt(1), datum.NewString("uno")},
			{datum.NewInt(3), datum.NewString("three")},
			{datum.Null, datum.NewString("null")},
		},
	}
	t2.ComputeStats()
	c.Add(t2)
	return c
}

// Column ids by convention in these tests: t1 -> a=1 b=2; t2 -> x=3 y=4.
func scanT1() *physical.Expr {
	return &physical.Expr{Op: physical.OpScan, Table: "t1", Cols: []scalar.ColumnID{1, 2}}
}

func scanT2() *physical.Expr {
	return &physical.Expr{Op: physical.OpScan, Table: "t2", Cols: []scalar.ColumnID{3, 4}}
}

func eqOn() scalar.Expr {
	return &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 3}}
}

func mustRun(t *testing.T, plan *physical.Expr) []datum.Row {
	t.Helper()
	rows, err := Run(plan, testCatalog())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rows
}

func TestScan(t *testing.T) {
	rows := mustRun(t, scanT1())
	if len(rows) != 4 {
		t.Fatalf("scan rows = %d", len(rows))
	}
}

func TestFilter(t *testing.T) {
	plan := &physical.Expr{
		Op: physical.OpFilter, Children: []*physical.Expr{scanT1()},
		Filter: &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: datum.NewInt(15)}},
	}
	rows := mustRun(t, plan)
	// b > 15 keeps (2,20),(NULL,40); (3,NULL) is UNKNOWN -> dropped.
	if len(rows) != 2 {
		t.Fatalf("filter rows = %d, want 2", len(rows))
	}
}

func TestProject(t *testing.T) {
	plan := &physical.Expr{
		Op: physical.OpProject, Children: []*physical.Expr{scanT1()},
		Projs: []logical.ProjItem{
			{Out: 9, E: &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 1}, R: &scalar.Const{D: datum.NewInt(100)}}},
		},
	}
	rows := mustRun(t, plan)
	if len(rows) != 4 || len(rows[0]) != 1 {
		t.Fatalf("project shape wrong: %v", rows)
	}
	if rows[0][0] != datum.NewInt(101) {
		t.Errorf("computed value = %v", rows[0][0])
	}
	if !rows[3][0].IsNull() {
		t.Errorf("NULL + 100 = %v, want NULL", rows[3][0])
	}
}

func joinPlan(op physical.Op, jt physical.JoinType) *physical.Expr {
	return &physical.Expr{
		Op: op, JoinType: jt,
		Children:  []*physical.Expr{scanT1(), scanT2()},
		On:        eqOn(),
		EquiLeft:  []scalar.ColumnID{1},
		EquiRight: []scalar.ColumnID{3},
	}
}

// Expected inner join result: a=1 matches (1,one),(1,uno); a=3 matches
// (3,three). NULL keys never match. Total 3 rows.
func TestInnerJoinVariants(t *testing.T) {
	for _, op := range []physical.Op{physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin} {
		rows := mustRun(t, joinPlan(op, physical.JoinInner))
		if len(rows) != 3 {
			t.Errorf("%s inner join rows = %d, want 3", op, len(rows))
		}
		for _, r := range rows {
			if len(r) != 4 {
				t.Fatalf("%s row width %d", op, len(r))
			}
		}
	}
}

func TestLeftJoin(t *testing.T) {
	for _, op := range []physical.Op{physical.OpHashJoin, physical.OpNLJoin} {
		rows := mustRun(t, joinPlan(op, physical.JoinLeft))
		// 3 matches + null-extended rows for a=2 and a=NULL.
		if len(rows) != 5 {
			t.Fatalf("%s left join rows = %d, want 5", op, len(rows))
		}
		nullExtended := 0
		for _, r := range rows {
			if r[2].IsNull() && r[3].IsNull() {
				nullExtended++
			}
		}
		if nullExtended != 2 {
			t.Errorf("%s null-extended rows = %d, want 2", op, nullExtended)
		}
	}
}

func TestSemiAndAntiJoin(t *testing.T) {
	for _, op := range []physical.Op{physical.OpHashJoin, physical.OpNLJoin} {
		semi := mustRun(t, joinPlan(op, physical.JoinSemi))
		// a=1 and a=3 have matches; each left row emitted once.
		if len(semi) != 2 {
			t.Errorf("%s semi rows = %d, want 2", op, len(semi))
		}
		for _, r := range semi {
			if len(r) != 2 {
				t.Errorf("%s semi row width %d, want 2 (left only)", op, len(r))
			}
		}
		anti := mustRun(t, joinPlan(op, physical.JoinAnti))
		// a=2 and a=NULL have no match.
		if len(anti) != 2 {
			t.Errorf("%s anti rows = %d, want 2", op, len(anti))
		}
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	// ON a = x AND y <> 'uno' — residual on top of the equi keys.
	plan := joinPlan(physical.OpHashJoin, physical.JoinInner)
	plan.On = &scalar.And{Kids: []scalar.Expr{
		eqOn(),
		&scalar.Cmp{Op: scalar.CmpNE, L: &scalar.ColRef{ID: 4}, R: &scalar.Const{D: datum.NewString("uno")}},
	}}
	rows := mustRun(t, plan)
	if len(rows) != 2 {
		t.Fatalf("residual join rows = %d, want 2", len(rows))
	}

	// Left join with residual: a=1 keeps 1 match; a=2,3(!),NULL null-extend.
	plan2 := joinPlan(physical.OpHashJoin, physical.JoinLeft)
	plan2.On = &scalar.And{Kids: []scalar.Expr{
		eqOn(),
		&scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 4}, R: &scalar.Const{D: datum.NewString("one")}},
	}}
	rows2 := mustRun(t, plan2)
	if len(rows2) != 4 {
		t.Fatalf("left join with residual rows = %d, want 4", len(rows2))
	}
}

func TestCrossJoinOnTrue(t *testing.T) {
	plan := &physical.Expr{
		Op: physical.OpNLJoin, JoinType: physical.JoinInner,
		Children: []*physical.Expr{scanT1(), scanT2()},
		On:       scalar.TrueExpr(),
	}
	rows := mustRun(t, plan)
	if len(rows) != 16 {
		t.Fatalf("cross join rows = %d, want 16", len(rows))
	}
}

func TestHashAgg(t *testing.T) {
	agg := &physical.Expr{
		Op: physical.OpHashAgg, Children: []*physical.Expr{scanT2()},
		GroupCols: []scalar.ColumnID{3},
		Aggs: []scalar.Agg{
			{Op: scalar.AggCountStar, Out: 10},
			{Op: scalar.AggCount, Arg: &scalar.ColRef{ID: 4}, Out: 11},
		},
	}
	rows := mustRun(t, agg)
	// Groups: x=1 (2 rows), x=3 (1), x=NULL (1).
	if len(rows) != 3 {
		t.Fatalf("agg groups = %d, want 3", len(rows))
	}
	counts := map[string]int64{}
	for _, r := range rows {
		counts[r[0].String()] = r[1].I
	}
	if counts["1"] != 2 || counts["3"] != 1 || counts["NULL"] != 1 {
		t.Errorf("group counts wrong: %v", counts)
	}
}

func TestAggNullHandling(t *testing.T) {
	// SUM/MIN/MAX/AVG/COUNT over b of t1: values 10,20,NULL,40.
	agg := &physical.Expr{
		Op: physical.OpHashAgg, Children: []*physical.Expr{scanT1()},
		Aggs: []scalar.Agg{
			{Op: scalar.AggSum, Arg: &scalar.ColRef{ID: 2}, Out: 10},
			{Op: scalar.AggMin, Arg: &scalar.ColRef{ID: 2}, Out: 11},
			{Op: scalar.AggMax, Arg: &scalar.ColRef{ID: 2}, Out: 12},
			{Op: scalar.AggAvg, Arg: &scalar.ColRef{ID: 2}, Out: 13},
			{Op: scalar.AggCount, Arg: &scalar.ColRef{ID: 2}, Out: 14},
			{Op: scalar.AggCountStar, Out: 15},
		},
	}
	rows := mustRun(t, agg)
	if len(rows) != 1 {
		t.Fatalf("scalar agg rows = %d", len(rows))
	}
	r := rows[0]
	if r[0] != datum.NewInt(70) || r[1] != datum.NewInt(10) || r[2] != datum.NewInt(40) {
		t.Errorf("sum/min/max = %v %v %v", r[0], r[1], r[2])
	}
	if r[3].K != datum.KindFloat || r[3].Float() != 70.0/3 {
		t.Errorf("avg = %v", r[3])
	}
	if r[4] != datum.NewInt(3) || r[5] != datum.NewInt(4) {
		t.Errorf("count/count* = %v %v", r[4], r[5])
	}
}

func TestScalarAggOverEmptyInput(t *testing.T) {
	empty := &physical.Expr{
		Op: physical.OpFilter, Children: []*physical.Expr{scanT1()},
		Filter: &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: datum.NewInt(1000)}},
	}
	agg := &physical.Expr{
		Op: physical.OpHashAgg, Children: []*physical.Expr{empty},
		Aggs: []scalar.Agg{
			{Op: scalar.AggCountStar, Out: 10},
			{Op: scalar.AggSum, Arg: &scalar.ColRef{ID: 2}, Out: 11},
		},
	}
	rows := mustRun(t, agg)
	if len(rows) != 1 {
		t.Fatalf("scalar agg over empty input must yield one row, got %d", len(rows))
	}
	if rows[0][0] != datum.NewInt(0) || !rows[0][1].IsNull() {
		t.Errorf("empty input: count=%v sum=%v, want 0/NULL", rows[0][0], rows[0][1])
	}
	// Grouped agg over empty input yields no rows.
	agg.GroupCols = []scalar.ColumnID{1}
	rows = mustRun(t, agg)
	if len(rows) != 0 {
		t.Errorf("grouped agg over empty input must yield no rows, got %d", len(rows))
	}
}

func TestSortAggMatchesHashAgg(t *testing.T) {
	mk := func(op physical.Op) *physical.Expr {
		return &physical.Expr{
			Op: op, Children: []*physical.Expr{scanT2()},
			GroupCols: []scalar.ColumnID{3},
			Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: 10}},
		}
	}
	h := mustRun(t, mk(physical.OpHashAgg))
	s := mustRun(t, mk(physical.OpSortAgg))
	if !EqualMultisets(h, s) {
		t.Error("hash and sort aggregation disagree")
	}
}

func TestSortAndLimit(t *testing.T) {
	sorted := &physical.Expr{
		Op: physical.OpSort, Children: []*physical.Expr{scanT1()},
		Keys: []logical.SortKey{{Col: 2, Desc: true}},
	}
	rows := mustRun(t, sorted)
	if rows[0][1] != datum.NewInt(40) || !rows[3][1].IsNull() {
		t.Errorf("descending sort wrong: %v", rows)
	}
	limited := &physical.Expr{Op: physical.OpLimit, Children: []*physical.Expr{sorted}, N: 2}
	rows = mustRun(t, limited)
	if len(rows) != 2 || rows[1][1] != datum.NewInt(20) {
		t.Errorf("limit wrong: %v", rows)
	}
}

func TestConcatRemapsColumns(t *testing.T) {
	plan := &physical.Expr{
		Op:        physical.OpConcat,
		Children:  []*physical.Expr{scanT1(), scanT2()},
		OutCols:   []scalar.ColumnID{20},
		InputCols: [][]scalar.ColumnID{{2}, {3}}, // t1.b ++ t2.x
	}
	rows := mustRun(t, plan)
	if len(rows) != 8 {
		t.Fatalf("concat rows = %d", len(rows))
	}
	if rows[0][0] != datum.NewInt(10) || rows[4][0] != datum.NewInt(1) {
		t.Errorf("concat values wrong: %v", rows)
	}
	for _, r := range rows {
		if len(r) != 1 {
			t.Fatal("concat width wrong")
		}
	}
}

func TestEqualMultisets(t *testing.T) {
	a := []datum.Row{{datum.NewInt(1)}, {datum.NewInt(1)}, {datum.NewInt(2)}}
	b := []datum.Row{{datum.NewInt(2)}, {datum.NewInt(1)}, {datum.NewInt(1)}}
	c := []datum.Row{{datum.NewInt(1)}, {datum.NewInt(2)}, {datum.NewInt(2)}}
	if !EqualMultisets(a, b) {
		t.Error("order must not matter")
	}
	if EqualMultisets(a, c) {
		t.Error("multiplicities must matter")
	}
	if EqualMultisets(a, a[:2]) {
		t.Error("lengths must matter")
	}
	if DiffSummary(a, c) == "" {
		t.Error("DiffSummary should describe the discrepancy")
	}
	// Int/float equality across plans.
	d := []datum.Row{{datum.NewFloat(1)}, {datum.NewFloat(1)}, {datum.NewFloat(2)}}
	if !EqualMultisets(a, d) {
		t.Error("1 and 1.0 must compare equal across plans")
	}
}

func TestBuildErrors(t *testing.T) {
	bad := &physical.Expr{Op: physical.OpScan, Table: "missing"}
	if _, err := Run(bad, testCatalog()); err == nil {
		t.Error("scan of missing table must error")
	}
	mj := joinPlan(physical.OpMergeJoin, physical.JoinLeft)
	if _, err := Run(mj, testCatalog()); err == nil {
		t.Error("merge join only supports inner joins")
	}
}

func TestConcatSameChildTwice(t *testing.T) {
	// The OR-expansion rule produces UNION ALL branches over the same input
	// columns; the executor must handle identical InputCols on both sides.
	plan := &physical.Expr{
		Op:        physical.OpConcat,
		Children:  []*physical.Expr{scanT1(), scanT1()},
		OutCols:   []scalar.ColumnID{20, 21},
		InputCols: [][]scalar.ColumnID{{1, 2}, {1, 2}},
	}
	rows := mustRun(t, plan)
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 (each t1 row twice)", len(rows))
	}
	counts := map[string]int{}
	for _, r := range rows {
		counts[rowKey(r)]++
	}
	for k, c := range counts {
		if c != 2 {
			t.Errorf("row %s appears %d times, want 2", k, c)
		}
	}
}

// TestShortRowFailsEveryRun: a table row shorter than its columns makes the
// batch engine's column build panic. Every later run over the same catalog
// must panic the same way — a bare scan, and a hash join whose build side is
// the table — not return no rows and no error, or fail somewhere else,
// because the failed build counted as done.
func TestShortRowFailsEveryRun(t *testing.T) {
	for name, plan := range map[string]*physical.Expr{
		"scan":      scanT2(),
		"hash join": joinPlan(physical.OpHashJoin, physical.JoinInner),
	} {
		cat := testCatalog()
		t2, err := cat.Table("t2")
		if err != nil {
			t.Fatal(err)
		}
		t2.Rows[2] = datum.Row{datum.NewInt(3)}
		var first string
		for run := 0; run < 3; run++ {
			func() {
				defer func() {
					v := recover()
					if run == 0 {
						first = fmt.Sprint(v)
					}
					if v == nil || fmt.Sprint(v) != first {
						t.Errorf("%s run %d: panic %v, want run 0's %s", name, run, v, first)
					}
				}()
				rows, err := Compile(EngineBatch, plan).Run(cat, 0, 0)
				t.Errorf("%s run %d: %d rows, err %v", name, run, len(rows), err)
			}()
		}
	}
}
