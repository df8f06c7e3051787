package exec

import (
	"math"
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// These tests audit the oracle's cross-kind comparison semantics — the exact
// rules the reference backend's normalization layer re-implements — and pin
// them with regressions on both production engines. Two invariants matter:
// numeric kinds widen (an INT 1 row and a FLOAT 1.0 row are the same row to
// the multiset oracle AND to the ordered key-sequence check, because both
// the oracle's row order and TotalCompare fold numerics through their float64
// image), and
// NULL ordering is NULL-first ascending / NULL-last descending everywhere.

// TestMultisetFoldsNumericKinds: INT vs FLOAT rows of equal value are one
// multiset element.
func TestMultisetFoldsNumericKinds(t *testing.T) {
	a := []datum.Row{{datum.NewInt(1)}, {datum.NewInt(2)}}
	b := []datum.Row{{datum.NewFloat(1.0)}, {datum.NewFloat(2.0)}}
	if !EqualMultisets(a, b) {
		t.Fatal("INT rows and equal-valued FLOAT rows must be equal multisets")
	}
	if EqualMultisets(a, []datum.Row{{datum.NewFloat(1.0)}, {datum.NewFloat(2.5)}}) {
		t.Fatal("2 and 2.5 folded together")
	}
}

// TestMultisetNaNIsOneValue: NaN is one value to the multiset oracle — every
// payload alike — and no number, although datum.Compare calls it equal to
// every number; and −0 is +0.
func TestMultisetNaNIsOneValue(t *testing.T) {
	nan, nan2 := datum.NewFloat(math.NaN()), datum.NewFloat(math.Float64frombits(0x7ff8000000000001))
	for _, c := range []struct {
		a, b  datum.Datum
		equal bool
	}{
		{nan, datum.NewInt(1), false},
		{nan, datum.NewFloat(math.Inf(1)), false},
		{nan, nan2, true},
		{datum.NewFloat(math.Copysign(0, -1)), datum.NewInt(0), true},
	} {
		a, b := []datum.Row{{c.a}}, []datum.Row{{c.b}}
		if got := EqualMultisets(a, b); got != c.equal {
			t.Errorf("{%v} = {%v}: %v, want %v", c.a, c.b, got, c.equal)
		}
		if got := DiffSummary(a, b) == ""; got != c.equal {
			t.Errorf("{%v} vs {%v}: DiffSummary %q", c.a, c.b, DiffSummary(a, b))
		}
	}
}

// TestKeySeqFoldsNumericKinds: the ordered comparison's key-sequence check
// widens the same way, so an INT-keyed and a FLOAT-keyed sorted result of
// equal values compare Equal rather than diverging at row 0.
func TestKeySeqFoldsNumericKinds(t *testing.T) {
	order := PlanOrder{Sorted: true, Slots: []int{0}, Descs: []bool{false}}
	ints := []datum.Row{{datum.NewInt(1)}, {datum.NewInt(2)}}
	floats := []datum.Row{{datum.NewFloat(1.0)}, {datum.NewFloat(2.0)}}
	if v, detail := CompareResults(ints, order, floats, order); v != VerdictEqual {
		t.Fatalf("widened sorted results: verdict %v (%s), want equal", v, detail)
	}
}

// TestFlippedNullPlacementIsMismatch: NULL sorts first ascending; a result
// claiming the same ascending order with NULL last contradicts it at row 0,
// and the oracle must say mismatch, not hide it in the multiset.
func TestFlippedNullPlacementIsMismatch(t *testing.T) {
	order := PlanOrder{Sorted: true, Slots: []int{0}, Descs: []bool{false}}
	nullFirst := []datum.Row{{datum.Null}, {datum.NewInt(1)}, {datum.NewInt(2)}}
	nullLast := []datum.Row{{datum.NewInt(1)}, {datum.NewInt(2)}, {datum.Null}}
	v, _ := CompareResults(nullFirst, order, nullLast, order)
	if v != VerdictMismatch {
		t.Fatalf("NULL-first vs NULL-last under one ascending contract: verdict %v, want mismatch", v)
	}
}

// TestNormalizeRowsMatchesTotalCompare: NormalizeRows — the canonical
// multiset form backends are compared in — orders NULLs and numbers as
// datum.TotalCompare does: NULL first, then numeric values widened across
// kinds. (The two orders part at NaN; TestMultisetNaNIsOneValue.)
func TestNormalizeRowsMatchesTotalCompare(t *testing.T) {
	in := []datum.Row{
		{datum.NewFloat(2.5)},
		{datum.Null},
		{datum.NewInt(2)},
		{datum.NewFloat(1.5)},
	}
	got := NormalizeRows(in)
	want := []datum.Row{
		{datum.Null},
		{datum.NewFloat(1.5)},
		{datum.NewInt(2)},
		{datum.NewFloat(2.5)},
	}
	for i := range want {
		if got[i][0] != want[i][0] {
			t.Fatalf("normalized[%d] = %v, want %v (full: %v)", i, got[i][0], want[i][0], got)
		}
	}
	// The input must not be reordered in place.
	if in[0][0] != datum.NewFloat(2.5) {
		t.Fatal("NormalizeRows mutated its input")
	}
}

// TestEnginesAgreeOnWidenedKeys is the engine-level regression: the same
// query computed with INT keys on one side and FLOAT-widened keys on the
// other (a + 0.0) must compare Equal through the oracle on the row engine,
// the batch engine, and between them.
func TestEnginesAgreeOnWidenedKeys(t *testing.T) {
	cat := testCatalog()
	intPlan := &physical.Expr{
		Op: physical.OpProject, Children: []*physical.Expr{scanT1()},
		Projs: []logical.ProjItem{{Out: 10, E: &scalar.ColRef{ID: 1}}},
	}
	floatPlan := &physical.Expr{
		Op: physical.OpProject, Children: []*physical.Expr{scanT1()},
		Projs: []logical.ProjItem{{Out: 10, E: &scalar.Arith{
			Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 1}, R: &scalar.Const{D: datum.NewFloat(0)},
		}}},
	}
	for _, eng := range []Engine{EngineRow, EngineBatch} {
		intRows, err := RunEngine(eng, intPlan, cat, 0, 0)
		if err != nil {
			t.Fatalf("%v int plan: %v", eng, err)
		}
		floatRows, err := RunEngine(eng, floatPlan, cat, 0, 0)
		if err != nil {
			t.Fatalf("%v float plan: %v", eng, err)
		}
		if v, detail := CompareResults(intRows, RootOrder(intPlan), floatRows, RootOrder(floatPlan)); v != VerdictEqual {
			t.Errorf("%v: INT vs FLOAT-widened projection: verdict %v (%s), want equal", eng, v, detail)
		}
	}
}

// TestEnginesAgreeOnNullPlacement pins NULL-first ascending and NULL-last
// descending on the row and batch engines positionally — the same contract
// the conformance suite checks on every backend, asserted here directly on
// the two production engines as the oracle-audit regression.
func TestEnginesAgreeOnNullPlacement(t *testing.T) {
	cat := testCatalog()
	for _, tc := range []struct {
		desc     bool
		nullSlot int // row index where the NULL key must land
	}{
		{desc: false, nullSlot: 0},
		{desc: true, nullSlot: 3},
	} {
		plan := &physical.Expr{
			Op: physical.OpSort, Children: []*physical.Expr{scanT1()},
			Keys: []logical.SortKey{{Col: 1, Desc: tc.desc}},
		}
		for _, eng := range []Engine{EngineRow, EngineBatch} {
			rows, err := RunEngine(eng, plan, cat, 0, 0)
			if err != nil {
				t.Fatalf("%v: %v", eng, err)
			}
			for i, r := range rows {
				if r[0].IsNull() != (i == tc.nullSlot) {
					t.Fatalf("%v desc=%v: NULL key at row %d, want row %d (rows: %v)",
						eng, tc.desc, i, tc.nullSlot, rows)
				}
			}
		}
	}
}
