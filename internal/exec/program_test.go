package exec

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// otherCatalog has confCatalog's table names and widths over different
// contents — other values, other row counts, an INT where t2.y holds strings —
// so whatever a program carried over from a run on one of the two shows in
// its answer on the other:
//
//	t1(a, b):  (3,1) (3,NULL) (NULL,NULL) (7,70) (1,5)
//	t2(x, y):  (3,30) (7,70) (7,71)
//	t3(f):     3.0
//	tn(g, tag): (7.0,'seven') (NaN,'nan') (NULL,'null')
func otherCatalog() *catalog.Catalog {
	ni, null := datum.NewInt, datum.Null
	c := catalog.New()
	for _, tbl := range []*catalog.Table{
		{
			Name:    "t1",
			Columns: []catalog.Column{{Name: "a", Type: datum.TypeInt}, {Name: "b", Type: datum.TypeInt}},
			Rows:    []datum.Row{{ni(3), ni(1)}, {ni(3), null}, {null, null}, {ni(7), ni(70)}, {ni(1), ni(5)}},
		},
		{
			Name:    "t2",
			Columns: []catalog.Column{{Name: "x", Type: datum.TypeInt}, {Name: "y", Type: datum.TypeInt}},
			Rows:    []datum.Row{{ni(3), ni(30)}, {ni(7), ni(70)}, {ni(7), ni(71)}},
		},
		{
			Name:    "t3",
			Columns: []catalog.Column{{Name: "f", Type: datum.TypeFloat}},
			Rows:    []datum.Row{{datum.NewFloat(3.0)}},
		},
		{
			Name:    "tn",
			Columns: []catalog.Column{{Name: "g", Type: datum.TypeFloat}, {Name: "tag", Type: datum.TypeString}},
			Rows: []datum.Row{
				{datum.NewFloat(7), datum.NewString("seven")},
				{datum.NewFloat(math.NaN()), datum.NewString("nan")},
				{null, datum.NewString("null")},
			},
		},
	} {
		tbl.ComputeStats()
		c.Add(tbl)
	}
	return c
}

// requireIdle fails unless the program's trees — after sequential runs, at
// most one with taps and one without — are idle and hold nothing a run took
// from its database or from a pool: no table, no transposition, no join
// index, no build vectors, no batch or row of the last run, no scratch.
func requireIdle(t *testing.T, p *Program) {
	t.Helper()
	if p.idle == [2]*tree{} {
		t.Fatal("no idle tree after a run")
	}
	for _, tr := range p.idle {
		if tr != nil {
			if tr.next != nil {
				t.Fatal("sequential runs compiled a second tree of one kind")
			}
			requireIdleTree(t, tr)
		}
	}
}

func requireIdleTree(t *testing.T, tr *tree) {
	t.Helper()
	if !reflect.DeepEqual(tr.runState, runState{}) {
		t.Errorf("idle tree keeps run state %+v", tr.runState)
	}
	// check visits one operator or tap and then its inputs.
	var check func(op interface{})
	check = func(op interface{}) {
		clean := true
		var kids []interface{}
		switch o := op.(type) {
		case *rowTap:
			kids = []interface{}{o.iterator}
		case *batchTap:
			kids = []interface{}{o.BatchIterator}
		case *batchScan:
			clean = o.table == nil && o.cols == nil && o.idx == nil && o.out.Cols == nil && o.out.Rows == nil
		case *batchFilter:
			clean, kids = o.s == nil && o.out.Cols == nil, []interface{}{o.child}
		case *batchProject:
			clean, kids = o.s == nil && o.out.Cols == nil, []interface{}{o.child}
		case *batchJoin:
			clean, kids = reflect.DeepEqual(o.joinRun, joinRun{}), []interface{}{o.left, o.right}
		case *batchAgg:
			clean, kids = o.s == nil && o.idx == nil && o.out.Cols == nil, []interface{}{o.child}
		case *batchSort:
			clean, kids = o.s == nil && o.pos == 0 && o.out.Cols == nil, []interface{}{o.child}
		case *batchLimit:
			clean, kids = o.out.Cols == nil, []interface{}{o.child}
		case *batchConcat:
			clean = o.out.Cols == nil
			for _, c := range o.cols {
				clean = clean && c.D == nil
			}
			for _, k := range o.kids {
				kids = append(kids, k)
			}
		case *scanIter:
			clean = o.rows == nil
		case *filterIter:
			kids = []interface{}{o.child}
		case *projectIter:
			kids = []interface{}{o.child}
		case *limitIter:
			kids = []interface{}{o.child}
		case *sortIter:
			clean, kids = o.rows == nil, []interface{}{o.child}
		case *aggIter:
			clean, kids = o.out == nil, []interface{}{o.child}
		case *joinIter:
			clean, kids = o.table == nil && o.build == nil && o.leftRow == nil && o.cands == nil, []interface{}{o.left, o.right}
		case *concatIter:
			for _, k := range o.kids {
				kids = append(kids, k)
			}
		default:
			t.Fatalf("requireIdle does not know operator %T", op)
		}
		if !clean {
			t.Errorf("idle %T keeps state of its last run: %+v", op, op)
		}
		for _, k := range kids {
			check(k)
		}
	}
	if tr.batches != nil {
		check(tr.batches)
	} else {
		check(tr.rows)
	}
}

// TestProgramReuseIsInvisible: every conformance plan through one Program on
// two databases with different contents under the same table names,
// interleaved A, B, A, without a budget and under one no run reaches (the tree
// without taps and the tree with) — each answer is the fresh RunEngine's, rows
// and order, and between runs the trees hold nothing of either database.
func TestProgramReuseIsInvisible(t *testing.T) {
	a, b := confCatalog(), otherCatalog()
	for _, tc := range conformanceCases() {
		for _, eng := range engines {
			t.Run(tc.name+"/"+eng.String(), func(t *testing.T) {
				p := Compile(eng, tc.plan)
				for i, cat := range []*catalog.Catalog{a, b, a} {
					for _, maxWork := range []int64{0, 1 << 20} {
						want, werr := RunEngine(eng, tc.plan, cat, 0, maxWork)
						got, err := p.Run(cat, 0, maxWork)
						if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
							t.Fatalf("run %d: err = %v, fresh %v", i, err, werr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("run %d: reused program answers\n%v\nfresh execution\n%v", i, got, want)
						}
						if eng != EngineRef {
							requireIdle(t, p)
						}
					}
				}
			})
		}
	}
}

// TestProgramSurvivesFailedRuns: a run that trips MaxWork or MaxRows, fails
// mid-plan or fails to open leaves the Program usable — the next run, on
// another database, gives the fresh answer, the budget starts full every
// time, and whatever the failed run had opened was closed.
func TestProgramSurvivesFailedRuns(t *testing.T) {
	a, b := confCatalog(), otherCatalog()
	noT3 := testCatalog()
	cross := nlPlan(physical.JoinInner, scanT2(), &scalar.Const{D: datum.NewBool(true)})
	sumY := &physical.Expr{
		Op: physical.OpHashAgg, Children: []*physical.Expr{joinPlan(physical.OpHashJoin, physical.JoinInner)},
		Aggs: []scalar.Agg{{Op: scalar.AggSum, Arg: col(4), Out: 10}},
	}
	buildMissing := &physical.Expr{
		Op: physical.OpHashJoin, JoinType: physical.JoinInner,
		Children: []*physical.Expr{filterOf(scanT1(), cmpExpr(scalar.CmpGT, col(2), intc(0))), scanT3()},
		On:       cmpExpr(scalar.CmpEQ, col(1), col(5)), EquiLeft: []scalar.ColumnID{1}, EquiRight: []scalar.ColumnID{5},
	}
	probeMissing := &physical.Expr{
		Op: physical.OpNLJoin, JoinType: physical.JoinLeft,
		Children: []*physical.Expr{scanT3(), filterOf(scanT1(), cmpExpr(scalar.CmpGT, col(2), intc(0)))},
		On:       cmpExpr(scalar.CmpLT, col(5), col(1)),
	}
	for _, eng := range []Engine{EngineRow, EngineBatch} {
		for _, tc := range []struct {
			name    string
			plan    *physical.Expr
			cat     *catalog.Catalog // the failing run's database
			maxRows int
			maxWork int64
			wantErr string
		}{
			// 4 + 4 scanned rows and 16 joined: the budget trips inside the join.
			{"work cap", cross, a, 0, 23, ErrRowLimit.Error()},
			{"row cap", cross, a, 15, 0, ErrRowLimit.Error()},
			// SUM over t2.y: strings in A, integers in B.
			{"mid-plan error", sumY, a, 0, 0, "exec: SUM over non-numeric VARCHAR value"},
			// The error text of the compile-time lookup this replaced.
			{"build side fails to open", buildMissing, noT3, 0, 0, `catalog: table "t3" does not exist`},
			{"probe side fails to open", probeMissing, noT3, 0, 0, `catalog: table "t3" does not exist`},
		} {
			t.Run(eng.String()+"/"+tc.name, func(t *testing.T) {
				p := Compile(eng, tc.plan)
				for round := 0; round < 2; round++ {
					if _, err := p.Run(tc.cat, tc.maxRows, tc.maxWork); err == nil || err.Error() != tc.wantErr {
						t.Fatalf("round %d: err = %v, want %q", round, err, tc.wantErr)
					}
					requireIdle(t, p)
					want, err := RunEngine(eng, tc.plan, b, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					got, err := p.Run(b, 0, 0)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: after the failed run the program answers %v, %v; fresh execution %v", round, got, err, want)
					}
				}
			})
		}
		// A budget of exactly the plan's work passes run after run only if
		// every run starts with all of it.
		t.Run(eng.String()+"/budget starts full", func(t *testing.T) {
			p := Compile(eng, cross)
			for round := 0; round < 3; round++ {
				if rows, err := p.Run(a, 16, 24); err != nil || len(rows) != 16 {
					t.Fatalf("round %d: %d rows, %v", round, len(rows), err)
				}
				if _, err := p.Run(a, 16, 23); !errors.Is(err, ErrRowLimit) {
					t.Fatalf("round %d: one row short of the work, err = %v", round, err)
				}
			}
		})
	}
}

// TestProgramCompilesOnDemand: Compile builds no operator, the first Run
// builds one tree, later sequential runs of its kind reuse it, and what the
// engine cannot run is the error of every Run.
func TestProgramCompilesOnDemand(t *testing.T) {
	cat := testCatalog()
	p := Compile(EngineBatch, joinPlan(physical.OpHashJoin, physical.JoinLeft))
	if p.idle != [2]*tree{} {
		t.Fatal("Compile built a tree before any Run asked for one")
	}
	if n := testing.AllocsPerRun(10, func() { Compile(EngineBatch, p.plan) }); n > 1 {
		t.Errorf("Compile allocates %.0f objects, want the Program alone", n)
	}
	var first *tree
	for i := 0; i < 3; i++ {
		if _, err := p.Run(cat, 0, 0); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = p.idle[0]
		}
		if p.idle[0] != first || first == nil || first.next != nil || p.idle[1] != nil {
			t.Fatalf("run %d: sequential runs must reuse the one tree", i)
		}
	}
	bad := joinPlan(physical.OpHashJoin, physical.JoinInner)
	bad.EquiLeft = []scalar.ColumnID{99}
	for _, q := range []*Program{Compile(EngineBatch, bad), Compile(Engine(99), scanT1())} {
		_, err1 := q.Run(cat, 0, 0)
		_, err2 := q.Run(cat, 0, 0)
		if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
			t.Errorf("uncompilable program: runs fail with %v, then %v", err1, err2)
		}
	}
}

// TestProgramConcurrentRuns: one Program run from several goroutines at once,
// each on a database of its own, answers every run as a fresh execution
// would. Meant for -race: concurrent runs each hold an operator tree of their
// own, and nothing of a tree is shared but what the plan alone determines.
func TestProgramConcurrentRuns(t *testing.T) {
	cats := []*catalog.Catalog{confCatalog(), otherCatalog(), confCatalog(), otherCatalog()}
	for _, tc := range conformanceCases() {
		for _, eng := range []Engine{EngineRow, EngineBatch} {
			p := Compile(eng, tc.plan)
			var wg sync.WaitGroup
			for _, cat := range cats {
				want, err := RunEngine(eng, tc.plan, cat, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(cat *catalog.Catalog) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						got, err := p.Run(cat, 0, 0)
						if err != nil || !reflect.DeepEqual(got, want) {
							t.Errorf("%s/%s: concurrent run answers %v, %v; fresh execution %v", tc.name, eng, got, err, want)
							return
						}
					}
				}(cat)
			}
			wg.Wait()
			trees := 0
			for tr := p.idle[0]; tr != nil; tr = tr.next {
				trees++
			}
			if trees < 1 || trees > len(cats) {
				t.Errorf("%s/%s: %d idle trees after %d concurrent runners", tc.name, eng, trees, len(cats))
			}
		}
	}
}
