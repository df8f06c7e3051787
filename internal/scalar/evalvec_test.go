package scalar

import (
	"fmt"
	"math/rand"
	"testing"

	"qtrtest/internal/datum"
)

func colName(c ColumnID) string { return "c" + string(rune('0'+c)) }

// randVecExpr builds a random type-correct expression over columns 1..3
// (int, float, string), like the engine's query generators do: arithmetic
// only over numeric operands, comparisons only over comparable kinds.
func randVecExpr(r *rand.Rand, depth int) Expr {
	numeric := func() Expr {
		switch r.Intn(3) {
		case 0:
			return &ColRef{ID: 1}
		case 1:
			return &ColRef{ID: 2}
		default:
			return &Const{D: datum.NewInt(int64(r.Intn(10) - 5))}
		}
	}
	numericOrArith := func() Expr {
		if r.Intn(3) == 0 {
			return &Arith{Op: ArithOp(r.Intn(3)), L: numeric(), R: numeric()}
		}
		return numeric()
	}
	leaf := func() Expr {
		if r.Intn(4) == 0 {
			return &Cmp{Op: CmpOp(r.Intn(6)),
				L: &ColRef{ID: 3}, R: &Const{D: datum.NewString(string(rune('a' + r.Intn(4))))}}
		}
		return &Cmp{Op: CmpOp(r.Intn(6)), L: numericOrArith(), R: numericOrArith()}
	}
	if depth <= 0 {
		return leaf()
	}
	switch r.Intn(6) {
	case 0:
		return &And{Kids: []Expr{randVecExpr(r, depth-1), randVecExpr(r, depth-1)}}
	case 1:
		return &Or{Kids: []Expr{randVecExpr(r, depth-1), randVecExpr(r, depth-1)}}
	case 2:
		return &Not{Kid: randVecExpr(r, depth-1)}
	case 3:
		return &IsNull{Kid: numericOrArith()}
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

// Reading a join's candidate pairs in place, through a PairView, must equal
// gathering the columns first and evaluating over the gathered copies.
func TestVecEvalPairsMatchGather(t *testing.T) {
	env := Env{1: 0, 2: 1, 3: 2}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		left := datum.ColumnVecs(randVecRows(r, 37), 3)
		right := datum.ColumnVecs(randVecRows(r, 11), 3)
		const pairs = 200
		candL, candR := make([]int, pairs), make([]int, pairs)
		for k := range candL {
			candL[k], candR[k] = r.Intn(37), r.Intn(11)
		}
		// Columns 1 and 2 are the probe side's, column 3 the build side's.
		gathered := make([]datum.Vec, 3)
		gathered[0].AppendGather(left[0].D, candL)
		gathered[1].AppendGather(left[1].D, candL)
		gathered[2].AppendGather(right[2].D, candR)
		var sel []int // every candidate but each seventh, so position != index
		for k := 0; k < pairs; k++ {
			if k%7 != 0 {
				sel = append(sel, k)
			}
		}
		inPlace := left[:2]
		via := &VecEval{Env: env, Pairs: &PairView{Split: 2, Right: right[2:], L: candL, R: candR}}
		plain := &VecEval{Env: env}
		for ei := 0; ei < 10; ei++ {
			e := randVecExpr(r, 2)
			var got, want datum.Vec
			if err := via.Eval(e, inPlace, sel, &got); err != nil {
				t.Fatalf("seed %d %s: via: %v", seed, SQL(e, colName), err)
			}
			if err := plain.Eval(e, gathered, sel, &want); err != nil {
				t.Fatalf("seed %d %s: gathered: %v", seed, SQL(e, colName), err)
			}
			for k := range want.D {
				if got.D[k] != want.D[k] {
					t.Fatalf("seed %d %s candidate %d: via %v, gathered %v", seed, SQL(e, colName), sel[k], got.D[k], want.D[k])
				}
			}
			gotSel, err := via.EvalPred(e, inPlace, sel, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantSel, err := plain.EvalPred(e, gathered, sel, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(gotSel) != fmt.Sprint(wantSel) {
				t.Fatalf("seed %d %s: via kept %v, gathered %v", seed, SQL(e, colName), gotSel, wantSel)
			}
		}
		for _, id := range []ColumnID{1, 2, 3} { // a bare column in value position
			var got, want datum.Vec
			if err := via.Eval(&ColRef{ID: id}, inPlace, sel, &got); err != nil {
				t.Fatal(err)
			}
			if err := plain.Eval(&ColRef{ID: id}, gathered, sel, &want); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.D) != fmt.Sprint(want.D) {
				t.Fatalf("seed %d c%d: via %v, gathered %v", seed, id, got.D, want.D)
			}
		}
	}
}

// EvalPred must support in-place restriction: output aliasing input.
func TestVecEvalPredInPlace(t *testing.T) {
	env := Env{1: 0, 2: 1, 3: 2}
	r := rand.New(rand.NewSource(7))
	rows := randVecRows(r, 128)
	cols := datum.ColumnVecs(rows, 3)
	e := &And{Kids: []Expr{
		&Cmp{Op: CmpGT, L: &ColRef{ID: 1}, R: &Const{D: datum.NewInt(-3)}},
		&Cmp{Op: CmpLT, L: &ColRef{ID: 2}, R: &Const{D: datum.NewFloat(3)}},
	}}
	ve := &VecEval{Env: env}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	fresh, err := ve.EvalPred(e, cols, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), fresh...)
	inplace, err := ve.EvalPred(e, cols, idx, idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(inplace) != len(want) {
		t.Fatalf("in-place kept %d rows, want %d", len(inplace), len(want))
	}
	for i := range want {
		if inplace[i] != want[i] {
			t.Fatalf("in-place selection diverges at %d", i)
		}
	}
}

// Arithmetic over non-numeric operands must error, in value and in filter
// position.
func TestVecEvalArithErrorPropagates(t *testing.T) {
	env := Env{3: 0}
	rows := []datum.Row{{datum.NewString("x")}}
	cols := datum.ColumnVecs(rows, 1)
	e := &Arith{Op: ArithAdd, L: &ColRef{ID: 3}, R: &Const{D: datum.NewInt(1)}}
	ve := &VecEval{Env: env}
	var out datum.Vec
	if err := ve.Eval(e, cols, []int{0}, &out); err == nil {
		t.Fatal("vectorized arithmetic on string must error")
	}
	if _, err := ve.EvalPred(&Cmp{Op: CmpLT, L: e, R: &Const{D: datum.NewInt(1)}}, cols, []int{0}, nil); err == nil {
		t.Fatal("a filter over arithmetic on string must error")
	}
}
