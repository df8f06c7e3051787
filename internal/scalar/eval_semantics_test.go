package scalar

import (
	"strings"
	"testing"

	"qtrtest/internal/datum"
)

// vecEvalOne evaluates e over a single-row batch on the vector engine,
// returning the row-0 datum.
func vecEvalOne(t testing.TB, e Expr, row datum.Row, env Env) (datum.Datum, error) {
	t.Helper()
	cols := datum.ColumnVecs([]datum.Row{row}, len(row))
	ve := &VecEval{Env: env}
	var out datum.Vec
	if err := ve.Eval(e, cols, []int{0}, &out); err != nil {
		return datum.Null, err
	}
	return out.D[0], nil
}

// vecPredOne runs EvalPred over a single-row batch, returning whether the
// row survived.
func vecPredOne(t testing.TB, e Expr, row datum.Row, env Env) (bool, error) {
	t.Helper()
	cols := datum.ColumnVecs([]datum.Row{row}, len(row))
	ve := &VecEval{Env: env}
	sel, err := ve.EvalPred(e, cols, []int{0}, nil)
	if err != nil {
		return false, err
	}
	return len(sel) == 1, nil
}

// TestNonBooleanPredicateErrors pins the first scalar-semantics fix: a
// non-NULL, non-boolean datum in predicate position is a typed execution
// error in value and in filter position — previously datumToTri silently
// treated it as TRUE on some paths while EvalPred required KindBool, so
// NOT (NOT e) and e filtered differently for non-boolean e.
func TestNonBooleanPredicateErrors(t *testing.T) {
	row := datum.Row{datum.NewInt(7)}
	en := env(1)
	intRef := Expr(col(1))
	cases := []struct {
		name string
		expr Expr
	}{
		{"double-negation", &Not{Kid: &Not{Kid: intRef}}},
		{"not", &Not{Kid: intRef}},
		{"and", and(intRef, eq(col(1), lit(7)))},
		{"single-kid-and", and(intRef)},
		{"or", &Or{Kids: []Expr{intRef, eq(col(1), lit(7))}}},
	}
	for _, c := range cases {
		if _, err := vecEvalOne(t, c.expr, row, en); err == nil {
			t.Errorf("%s: vector Eval accepted a non-boolean predicate", c.name)
		}
		if _, err := vecPredOne(t, c.expr, row, en); err == nil {
			t.Errorf("%s: vector EvalPred accepted a non-boolean predicate", c.name)
		}
	}
	// Bare non-boolean at the very top of a filter: EvalPred must reject it.
	if _, err := vecPredOne(t, intRef, row, en); err == nil {
		t.Error("vector EvalPred accepted a bare integer predicate")
	}
	// NULL stays a legal predicate (Unknown).
	nullRow := datum.Row{datum.Null}
	if got, err := vecEvalOne(t, &Not{Kid: &Not{Kid: col(1)}}, nullRow, en); err != nil || !got.IsNull() {
		t.Errorf("vector NOT NOT NULL = (%v, %v), want (NULL, nil)", got, err)
	}
}

// TestDoubleNegationMatchesBothEngines: for boolean e, NOT (NOT e) must
// filter exactly like e, and both keep exactly the rows e is TRUE on — the
// regression the non-boolean fix exists for, pinned on the boolean domain
// where it must keep working.
func TestDoubleNegationMatchesBothEngines(t *testing.T) {
	en := env(1)
	pred := lt(col(1), lit(3))
	double := &Not{Kid: &Not{Kid: pred}}
	for d, want := range map[datum.Datum]bool{datum.NewInt(1): true, datum.NewInt(5): false, datum.Null: false} {
		row := datum.Row{d}
		for _, e := range []Expr{pred, double} {
			got, err := vecPredOne(t, e, row, en)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("row %v: %s filters %v, want %v", d, SQL(e, colName), got, want)
			}
		}
	}
}

// TestConnectiveErrorsDominate pins the second fix: AND/OR evaluate every
// kid before folding, so a conjunct that errors surfaces the error no
// matter where it sits — reorder-predicates can no longer flip Error↔OK,
// and value and filter position agree. The erroring conjunct is string
// arithmetic inside a comparison; the other conjunct is FALSE (previously a
// short-circuit skipped the error when FALSE came first).
func TestConnectiveErrorsDominate(t *testing.T) {
	row := datum.Row{datum.NewInt(1), datum.NewString("x")}
	en := env(1, 2)
	falsy := Expr(eq(col(1), lit(99)))
	truthy := Expr(eq(col(1), lit(1)))
	erroring := Expr(lt(&Arith{Op: ArithAdd, L: col(2), R: lit(1)}, lit(10)))

	type order struct {
		name string
		expr Expr
	}
	orders := []order{
		{"and-false-first", and(falsy, erroring)},
		{"and-false-last", and(erroring, falsy)},
		{"or-true-first", &Or{Kids: []Expr{truthy, erroring}}},
		{"or-true-last", &Or{Kids: []Expr{erroring, truthy}}},
	}
	for _, o := range orders {
		if _, err := vecEvalOne(t, o.expr, row, en); err == nil {
			t.Errorf("%s: vector Eval short-circuited past the erroring operand", o.name)
		}
		if _, err := vecPredOne(t, o.expr, row, en); err == nil {
			t.Errorf("%s: vector EvalPred short-circuited past the erroring operand", o.name)
		}
	}
}

// TestEvalPredMixedConjunctionSelection: the slow path a can-error conjunct
// forces must still select exactly the rows WHERE semantics keep when each
// row is filtered on its own, when no row actually errors.
func TestEvalPredMixedConjunctionSelection(t *testing.T) {
	rows := []datum.Row{
		{datum.NewInt(1), datum.NewInt(10)},
		{datum.NewInt(2), datum.Null},
		{datum.NewInt(3), datum.NewInt(-4)},
		{datum.Null, datum.NewInt(2)},
		{datum.NewInt(5), datum.NewInt(1)},
	}
	en := env(1, 2)
	// The arithmetic conjunct can error in principle (operand kinds are
	// data-dependent), so EvalPred must take the full-input-intersection
	// path; over these all-int rows it never does error.
	pred := and(
		lt(col(1), lit(5)),
		&Cmp{Op: CmpGT, L: &Arith{Op: ArithAdd, L: col(2), R: lit(0)}, R: lit(0)},
	)
	cols := datum.ColumnVecs(rows, 2)
	ve := &VecEval{Env: en}
	idx := []int{0, 1, 2, 3, 4}
	sel, err := ve.EvalPred(pred, cols, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i, row := range rows {
		ok, err := vecPredOne(t, pred, row, en)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			want = append(want, i)
		}
	}
	if len(sel) != len(want) {
		t.Fatalf("EvalPred kept %v, row by row %v", sel, want)
	}
	for i := range sel {
		if sel[i] != want[i] {
			t.Fatalf("EvalPred kept %v, row by row %v", sel, want)
		}
	}
}

// TestMixedKindComparisonIsUnknown pins the third fix (a decision, now
// documented and tested): comparing incomparable kinds yields Unknown — in
// both value and filter position — not an error. EET rewrites never emit
// such comparisons (TypeOf rejects them), but dynamic data can still produce
// them.
func TestMixedKindComparisonIsUnknown(t *testing.T) {
	row := datum.Row{datum.NewInt(1), datum.NewString("x"), datum.NewBool(true)}
	en := env(1, 2, 3)
	cases := []Expr{
		eq(col(1), col(2)),                          // INT = STRING
		lt(col(2), col(1)),                          // STRING < INT
		eq(col(3), lit(1)),                          // BOOL = INT
		eq(col(2), &Const{D: datum.NewBool(false)}), // STRING = BOOL
	}
	for i, e := range cases {
		vgot, err := vecEvalOne(t, e, row, en)
		if err != nil {
			t.Fatalf("case %d: vector Eval: %v", i, err)
		}
		if !vgot.IsNull() {
			t.Errorf("case %d: vector Eval = %v, want NULL (Unknown)", i, vgot)
		}
		// Unknown filters the row, without error.
		kept, err := vecPredOne(t, e, row, en)
		if err != nil || kept {
			t.Errorf("case %d: vector EvalPred = (%v, %v), want (false, nil)", i, kept, err)
		}
		// And the mixed-kind tautology x = y OR x <> y is NOT true — the
		// reason TypeOf must gate EET tautologies on comparability.
		taut := &Or{Kids: []Expr{
			&Cmp{Op: CmpEQ, L: cases[0].(*Cmp).L, R: cases[0].(*Cmp).R},
			&Cmp{Op: CmpNE, L: cases[0].(*Cmp).L, R: cases[0].(*Cmp).R},
		}}
		if ok, err := vecPredOne(t, taut, row, en); err != nil || ok {
			t.Errorf("mixed-kind x = y OR x <> y = (%v, %v); must be Unknown, not TRUE", ok, err)
		}
	}
	// The error message for the non-boolean predicate fix should say what
	// went wrong, for findings triage.
	if _, err := vecPredOne(t, col(1), row, en); err == nil || !strings.Contains(err.Error(), "boolean") {
		t.Errorf("non-boolean predicate error should mention boolean, got %v", err)
	}
}
