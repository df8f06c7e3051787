package exec

import (
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// TestIteratorsReopen: every operator of either engine must be re-runnable
// without a Close in between (Open resets state, and a batch operator keeps
// the pooled scratch it already holds instead of taking a second one).
func TestIteratorsReopen(t *testing.T) {
	cat := testCatalog()
	plans := []*physical.Expr{
		scanT1(),
		{Op: physical.OpFilter, Children: []*physical.Expr{scanT1()},
			Filter: &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: datum.NewInt(0)}}},
		joinPlan(physical.OpHashJoin, physical.JoinInner),
		joinPlan(physical.OpNLJoin, physical.JoinLeft),
		joinPlan(physical.OpNLJoin, physical.JoinSemi),
		joinPlan(physical.OpMergeJoin, physical.JoinInner),
		{Op: physical.OpHashAgg, Children: []*physical.Expr{scanT2()},
			GroupCols: []scalar.ColumnID{3},
			Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: 10}}},
		{Op: physical.OpSort, Children: []*physical.Expr{scanT1()},
			Keys: []logical.SortKey{{Col: 1}}},
		{Op: physical.OpLimit, Children: []*physical.Expr{scanT1()}, N: 2},
		{Op: physical.OpConcat, Children: []*physical.Expr{scanT1(), scanT2()},
			OutCols: []scalar.ColumnID{20}, InputCols: [][]scalar.ColumnID{{2}, {3}}},
	}
	for _, plan := range plans {
		for _, eng := range []Engine{EngineRow, EngineBatch} {
			tr, err := Compile(eng, plan).compile(false)
			if err != nil {
				t.Fatalf("%s: %v", plan.Op, err)
			}
			tr.cat = cat
			var open, close func() error
			var next func() (bool, error)
			if tr.batches != nil {
				open, close = tr.batches.Open, tr.batches.Close
				next = func() (bool, error) { b, err := tr.batches.Next(); return b != nil, err }
			} else {
				open, close = tr.rows.Open, tr.rows.Close
				next = func() (bool, error) { r, err := tr.rows.Next(); return r != nil, err }
			}
			count := func() int {
				if err := open(); err != nil {
					t.Fatalf("%s/%s open: %v", plan.Op, eng, err)
				}
				n := 0
				for {
					more, err := next()
					if err != nil {
						t.Fatalf("%s/%s next: %v", plan.Op, eng, err)
					}
					if !more {
						break
					}
					n++
				}
				return n
			}
			first := count()
			second := count()
			if first == 0 || first != second {
				t.Errorf("%s/%s: first run %d outputs, second run %d — Open must reset state", plan.Op, eng, first, second)
			}
			if err := close(); err != nil {
				t.Errorf("%s/%s close: %v", plan.Op, eng, err)
			}
		}
	}
}

// TestNextAfterEOF: Next after exhaustion keeps returning nil without error.
func TestNextAfterEOF(t *testing.T) {
	it, _, err := (&compiler{st: &runState{cat: testCatalog()}, size: 1}).rowIter(scanT1())
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		row, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
	}
	for i := 0; i < 3; i++ {
		row, err := it.Next()
		if err != nil || row != nil {
			t.Fatalf("Next after EOF: row=%v err=%v", row, err)
		}
	}
}

// TestFilterErrorPropagation: scalar evaluation errors surface, not panic.
func TestFilterErrorPropagation(t *testing.T) {
	plan := &physical.Expr{
		Op: physical.OpFilter, Children: []*physical.Expr{scanT1()},
		Filter: &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 999}, R: &scalar.Const{D: datum.NewInt(1)}},
	}
	if _, err := Run(plan, testCatalog()); err == nil {
		t.Error("unbound column must produce an error")
	}
}
