package refengine

import (
	"fmt"
	"math/rand"
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/scalar"
)

// The production evaluator, scalar.VecEval, against this package's own
// interpreter (evalScalar, predTrue), which shares no kernel with it: over
// random well-typed expressions and rows, both agree on error versus OK, on
// every row's value and on the rows a filter keeps.

func colName(c scalar.ColumnID) string { return fmt.Sprintf("c%d", c) }

// checkVecMatchesRef evaluates e over rows with VecEval.Eval and
// VecEval.EvalPred, and with evalScalar and predTrue row by row under the
// same column positions.
func checkVecMatchesRef(t *testing.T, seed int64, e scalar.Expr, rows []datum.Row, env scalar.Env) {
	t.Helper()
	label := fmt.Sprintf("seed %d expr %s", seed, scalar.SQL(e, colName))
	sc := scope(env)
	cols := datum.ColumnVecs(rows, len(rows[0]))
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	ve := &scalar.VecEval{Env: env}

	want := make([]datum.Datum, len(rows))
	var wantErr error
	for i, row := range rows {
		d, err := evalScalar(e, row, sc)
		if err != nil && wantErr == nil {
			wantErr = err
		}
		want[i] = d
	}
	var out datum.Vec
	err := ve.Eval(e, cols, idx, &out)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%s: VecEval.Eval error %v, reference %v", label, err, wantErr)
	case err != nil:
	case out.Len() != len(rows):
		t.Fatalf("%s: got %d results for %d rows", label, out.Len(), len(rows))
	default:
		for i := range rows {
			if got := out.D[i]; datum.TotalCompare(got, want[i]) != 0 || got.IsNull() != want[i].IsNull() {
				t.Fatalf("%s row %d: vec=%v reference=%v", label, i, got, want[i])
			}
		}
	}

	var wantSel []int
	wantErr = nil
	for i, row := range rows {
		ok, err := predTrue(e, row, sc)
		if err != nil && wantErr == nil {
			wantErr = err
		}
		if ok {
			wantSel = append(wantSel, i)
		}
	}
	sel, err := ve.EvalPred(e, cols, idx, nil)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%s: EvalPred error %v, reference %v", label, err, wantErr)
	case err == nil && fmt.Sprint(sel) != fmt.Sprint(wantSel):
		t.Fatalf("%s: EvalPred kept %v, reference %v", label, sel, wantSel)
	}
}

// randVecExpr builds a random type-correct expression over columns 1..3
// (int, float, string), like the engine's query generators do: arithmetic
// only over numeric operands, comparisons only over comparable kinds.
func randVecExpr(r *rand.Rand, depth int) scalar.Expr {
	numeric := func() scalar.Expr {
		switch r.Intn(3) {
		case 0:
			return &scalar.ColRef{ID: 1}
		case 1:
			return &scalar.ColRef{ID: 2}
		default:
			return &scalar.Const{D: datum.NewInt(int64(r.Intn(10) - 5))}
		}
	}
	numericOrArith := func() scalar.Expr {
		if r.Intn(3) == 0 {
			return &scalar.Arith{Op: scalar.ArithOp(r.Intn(3)), L: numeric(), R: numeric()}
		}
		return numeric()
	}
	leaf := func() scalar.Expr {
		if r.Intn(4) == 0 {
			return &scalar.Cmp{Op: scalar.CmpOp(r.Intn(6)),
				L: &scalar.ColRef{ID: 3}, R: &scalar.Const{D: datum.NewString(string(rune('a' + r.Intn(4))))}}
		}
		return &scalar.Cmp{Op: scalar.CmpOp(r.Intn(6)), L: numericOrArith(), R: numericOrArith()}
	}
	if depth <= 0 {
		return leaf()
	}
	switch r.Intn(6) {
	case 0:
		return &scalar.And{Kids: []scalar.Expr{randVecExpr(r, depth-1), randVecExpr(r, depth-1)}}
	case 1:
		return &scalar.Or{Kids: []scalar.Expr{randVecExpr(r, depth-1), randVecExpr(r, depth-1)}}
	case 2:
		return &scalar.Not{Kid: randVecExpr(r, depth-1)}
	case 3:
		return &scalar.IsNull{Kid: numericOrArith()}
	default:
		return leaf()
	}
}

func randVecRows(r *rand.Rand, n int) []datum.Row {
	rows := make([]datum.Row, n)
	for i := range rows {
		row := make(datum.Row, 3)
		if r.Intn(5) == 0 {
			row[0] = datum.Null
		} else {
			row[0] = datum.NewInt(int64(r.Intn(10) - 5))
		}
		if r.Intn(5) == 0 {
			row[1] = datum.Null
		} else {
			row[1] = datum.NewFloat(float64(r.Intn(20))/2 - 5)
		}
		if r.Intn(5) == 0 {
			row[2] = datum.Null
		} else {
			row[2] = datum.NewString(string(rune('a' + r.Intn(4))))
		}
		rows[i] = row
	}
	return rows
}

func TestVecEvalMatchesRowEval(t *testing.T) {
	env := scalar.Env{1: 0, 2: 1, 3: 2}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		rows := randVecRows(r, 100)
		for ei := 0; ei < 10; ei++ {
			checkVecMatchesRef(t, seed, randVecExpr(r, 2), rows, env)
		}
	}
}

// randWideRows draws rows for a five-column schema — c1 INT, c2 FLOAT,
// c3 STRING, c4 BOOL, c5 DATE — with a NULL-heavy domain (~1/3 per column)
// so three-valued corner cases dominate.
func randWideRows(r *rand.Rand, n int) []datum.Row {
	rows := make([]datum.Row, n)
	for i := range rows {
		row := make(datum.Row, 5)
		gen := []func() datum.Datum{
			func() datum.Datum { return datum.NewInt(int64(r.Intn(9) - 4)) },
			func() datum.Datum { return datum.NewFloat(float64(r.Intn(16))/4 - 2) },
			func() datum.Datum { return datum.NewString(string(rune('a' + r.Intn(3)))) },
			func() datum.Datum { return datum.NewBool(r.Intn(2) == 0) },
			func() datum.Datum { return datum.NewDate(int64(r.Intn(7))) },
		}
		for c := range row {
			if r.Intn(3) == 0 {
				row[c] = datum.Null
			} else {
				row[c] = gen[c]()
			}
		}
		rows[i] = row
	}
	return rows
}

// randWidePred builds a random well-typed predicate over the five-column
// schema: arithmetic over int/float, comparisons only within a comparable
// family, bool leaves (column, constant, IS NULL), three-valued connectives
// and (double) negation on top.
func randWidePred(r *rand.Rand, depth int) scalar.Expr {
	intVal := func() scalar.Expr {
		switch r.Intn(4) {
		case 0:
			return &scalar.ColRef{ID: 1}
		case 1:
			return &scalar.Const{D: datum.NewInt(int64(r.Intn(9) - 4))}
		case 2:
			op := []scalar.ArithOp{scalar.ArithAdd, scalar.ArithMul}[r.Intn(2)]
			return &scalar.Arith{Op: op,
				L: &scalar.Arith{Op: op, L: &scalar.ColRef{ID: 1}, R: &scalar.Const{D: datum.NewInt(int64(r.Intn(5)))}},
				R: &scalar.Const{D: datum.NewInt(int64(r.Intn(5) + 1))}}
		default:
			return &scalar.Arith{Op: scalar.ArithOp(r.Intn(3)), L: &scalar.ColRef{ID: 1},
				R: &scalar.Const{D: datum.NewInt(int64(r.Intn(5)))}}
		}
	}
	numVal := func() scalar.Expr {
		switch r.Intn(5) {
		case 0:
			return &scalar.ColRef{ID: 2}
		case 1:
			return &scalar.Const{D: datum.NewFloat(float64(r.Intn(8)) / 2)}
		case 2:
			return &scalar.ColRef{ID: 5}
		case 3:
			return &scalar.Const{D: datum.Null}
		default:
			return intVal()
		}
	}
	leaf := func() scalar.Expr {
		switch r.Intn(6) {
		case 0:
			return &scalar.Cmp{Op: scalar.CmpOp(r.Intn(6)), L: &scalar.ColRef{ID: 3},
				R: &scalar.Const{D: datum.NewString(string(rune('a' + r.Intn(3))))}}
		case 1:
			return &scalar.Cmp{Op: scalar.CmpOp(r.Intn(2)), L: &scalar.ColRef{ID: 4},
				R: &scalar.Const{D: datum.NewBool(r.Intn(2) == 0)}}
		case 2:
			return &scalar.IsNull{Kid: numVal()}
		case 3:
			return &scalar.ColRef{ID: 4}
		case 4:
			return &scalar.Const{D: datum.NewBool(r.Intn(2) == 0)}
		default:
			return &scalar.Cmp{Op: scalar.CmpOp(r.Intn(6)), L: numVal(), R: numVal()}
		}
	}
	if depth <= 0 {
		return leaf()
	}
	switch r.Intn(6) {
	case 0:
		return &scalar.And{Kids: []scalar.Expr{randWidePred(r, depth-1), randWidePred(r, depth-1)}}
	case 1:
		return &scalar.Or{Kids: []scalar.Expr{randWidePred(r, depth-1), randWidePred(r, depth-1), leaf()}}
	case 2:
		return &scalar.Not{Kid: randWidePred(r, depth-1)}
	case 3:
		return &scalar.Not{Kid: &scalar.Not{Kid: randWidePred(r, depth-1)}}
	default:
		return leaf()
	}
}

// TestVecEvalMatchesRowEvalWide widens the differential to all five column
// types (bool and date leaves, double negation, bool constants) on a
// NULL-heavy domain.
func TestVecEvalMatchesRowEvalWide(t *testing.T) {
	env := scalar.Env{1: 0, 2: 1, 3: 2, 4: 3, 5: 4}
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		rows := randWideRows(r, 80)
		for ei := 0; ei < 8; ei++ {
			checkVecMatchesRef(t, seed, randWidePred(r, 2), rows, env)
		}
	}
}
