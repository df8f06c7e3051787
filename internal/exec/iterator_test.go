package exec

import (
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// TestIteratorsReopen: every batch operator, at either batch size, must be
// re-runnable without a Close in between (Open resets state, and an operator
// keeps the pooled scratch it already holds instead of taking a second one).
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
			tr, err := Compile(eng, plan).compile()
			if err != nil {
				t.Fatalf("%s: %v", plan.Op, err)
			}
			tr.cat = cat
			count := func() int {
				if err := tr.batches.Open(); err != nil {
					t.Fatalf("%s/%s open: %v", plan.Op, eng, err)
				}
				n := 0
				for {
					b, err := tr.batches.Next()
					if err != nil {
						t.Fatalf("%s/%s next: %v", plan.Op, eng, err)
					}
					if b == nil {
						break
					}
					n += b.Len()
				}
				return n
			}
			first := count()
			second := count()
			if first == 0 || first != second {
				t.Errorf("%s/%s: first run %d outputs, second run %d — Open must reset state", plan.Op, eng, first, second)
			}
			if err := tr.batches.Close(); err != nil {
				t.Errorf("%s/%s close: %v", plan.Op, eng, err)
			}
		}
	}
}

// TestNextAfterEOF: Next after exhaustion keeps returning nil without error,
// on every operator that emits batches of its own at either batch size.
func TestNextAfterEOF(t *testing.T) {
	for _, plan := range []*physical.Expr{
		scanT1(),
		sortPlan(scanT1(), logical.SortKey{Col: 1}),
		{Op: physical.OpHashAgg, Children: []*physical.Expr{scanT1()}, Aggs: []scalar.Agg{{Op: scalar.AggCountStar, Out: 10}}},
		joinPlan(physical.OpHashJoin, physical.JoinLeft),
	} {
		for _, eng := range []Engine{EngineRow, EngineBatch} {
			tr, err := Compile(eng, plan).compile()
			if err != nil {
				t.Fatal(err)
			}
			tr.cat = testCatalog()
			if err := tr.batches.Open(); err != nil {
				t.Fatal(err)
			}
			for {
				b, err := tr.batches.Next()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
			}
			for i := 0; i < 3; i++ {
				if b, err := tr.batches.Next(); err != nil || b != nil {
					t.Fatalf("%s/%s: Next after EOF: batch=%v err=%v", plan.Op, eng, b, err)
				}
			}
			if err := tr.batches.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFilterErrorPropagation: scalar evaluation errors surface, not panic,
// at either batch size.
func TestFilterErrorPropagation(t *testing.T) {
	plan := &physical.Expr{
		Op: physical.OpFilter, Children: []*physical.Expr{scanT1()},
		Filter: &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 999}, R: &scalar.Const{D: datum.NewInt(1)}},
	}
	for _, eng := range []Engine{EngineRow, EngineBatch} {
		if _, err := RunEngine(eng, plan, testCatalog(), 0, 0); err == nil {
			t.Errorf("%s engine: unbound column must produce an error", eng)
		}
	}
}
