package refengine

import (
	"fmt"
	"strings"

	"qtrtest/internal/datum"
	"qtrtest/internal/scalar"
)

// This file is the reference engine's own scalar interpreter. It evaluates
// the shared scalar.Expr node types but deliberately re-implements the
// semantics instead of calling scalar.VecEval, so a bug in the production
// evaluator cannot hide itself from the cross-engine oracle. The pinned
// semantics (shared with VecEval, enforced by this package's differential
// tests and the conformance suite in internal/exec):
//
//   - three-valued logic: NULL in predicate position is UNKNOWN; a non-NULL
//     non-boolean predicate value is an execution error;
//   - errors dominate: AND/OR evaluate every operand before folding, so
//     Error-vs-OK cannot depend on operand order or short-circuiting;
//   - comparisons between NULLs or incomparable kinds are UNKNOWN, never an
//     error; numeric kinds (INT, FLOAT, DATE) compare through their float64
//     image;
//   - arithmetic over two INTs stays INT with wrapping int64 semantics,
//     any other numeric mix widens to FLOAT, a NULL operand yields NULL,
//     and a non-numeric operand is an execution error.

// tri is the reference engine's own three-valued truth value.
type tri int8

const (
	triFalse tri = iota
	triTrue
	triUnknown
)

// predTrue evaluates a predicate under WHERE semantics: only TRUE keeps the
// row; FALSE and UNKNOWN (NULL) both reject it.
func predTrue(pred scalar.Expr, row datum.Row, sc scope) (bool, error) {
	t, err := evalPred(pred, row, sc)
	if err != nil {
		return false, err
	}
	return t == triTrue, nil
}

// evalPred evaluates an expression in predicate position.
func evalPred(pred scalar.Expr, row datum.Row, sc scope) (tri, error) {
	d, err := evalScalar(pred, row, sc)
	if err != nil {
		return triUnknown, err
	}
	return asTri(d)
}

// asTri interprets a datum as a truth value: NULL is UNKNOWN, BOOL maps
// directly, anything else is a typed execution error.
func asTri(d datum.Datum) (tri, error) {
	switch {
	case d.IsNull():
		return triUnknown, nil
	case d.K == datum.KindBool && d.Bool():
		return triTrue, nil
	case d.K == datum.KindBool:
		return triFalse, nil
	}
	return triUnknown, fmt.Errorf("refengine: %v is not a boolean predicate", d)
}

func triDatum(t tri) datum.Datum {
	switch t {
	case triTrue:
		return datum.NewBool(true)
	case triFalse:
		return datum.NewBool(false)
	}
	return datum.Null
}

// evalScalar evaluates a scalar expression against one row.
func evalScalar(e scalar.Expr, row datum.Row, sc scope) (datum.Datum, error) {
	switch t := e.(type) {
	case *scalar.ColRef:
		slot, ok := sc[t.ID]
		if !ok {
			return datum.Null, fmt.Errorf("refengine: column c%d not in scope", t.ID)
		}
		return row[slot], nil

	case *scalar.Const:
		return t.D, nil

	case *scalar.Cmp:
		l, err := evalScalar(t.L, row, sc)
		if err != nil {
			return datum.Null, err
		}
		r, err := evalScalar(t.R, row, sc)
		if err != nil {
			return datum.Null, err
		}
		return triDatum(compareTri(t.Op, l, r)), nil

	case *scalar.Arith:
		l, err := evalScalar(t.L, row, sc)
		if err != nil {
			return datum.Null, err
		}
		r, err := evalScalar(t.R, row, sc)
		if err != nil {
			return datum.Null, err
		}
		return arith(t.Op, l, r)

	case *scalar.And:
		res := triTrue
		for _, k := range t.Kids {
			kt, err := evalPred(k, row, sc)
			if err != nil {
				return datum.Null, err
			}
			res = andTri(res, kt)
		}
		return triDatum(res), nil

	case *scalar.Or:
		res := triFalse
		for _, k := range t.Kids {
			kt, err := evalPred(k, row, sc)
			if err != nil {
				return datum.Null, err
			}
			res = orTri(res, kt)
		}
		return triDatum(res), nil

	case *scalar.Not:
		kt, err := evalPred(t.Kid, row, sc)
		if err != nil {
			return datum.Null, err
		}
		switch kt {
		case triTrue:
			return triDatum(triFalse), nil
		case triFalse:
			return triDatum(triTrue), nil
		}
		return datum.Null, nil

	case *scalar.IsNull:
		d, err := evalScalar(t.Kid, row, sc)
		if err != nil {
			return datum.Null, err
		}
		return datum.NewBool(d.IsNull()), nil
	}
	return datum.Null, fmt.Errorf("refengine: cannot evaluate %T", e)
}

func andTri(a, b tri) tri {
	switch {
	case a == triFalse || b == triFalse:
		return triFalse
	case a == triUnknown || b == triUnknown:
		return triUnknown
	}
	return triTrue
}

func orTri(a, b tri) tri {
	switch {
	case a == triTrue || b == triTrue:
		return triTrue
	case a == triUnknown || b == triUnknown:
		return triUnknown
	}
	return triFalse
}

// compareTri compares two datums under three-valued logic: a NULL operand
// or an incomparable kind pair yields UNKNOWN.
func compareTri(op scalar.CmpOp, l, r datum.Datum) tri {
	if l.IsNull() || r.IsNull() {
		return triUnknown
	}
	c, ok := compareVals(l, r)
	if !ok {
		return triUnknown
	}
	var res bool
	switch op {
	case scalar.CmpEQ:
		res = c == 0
	case scalar.CmpNE:
		res = c != 0
	case scalar.CmpLT:
		res = c < 0
	case scalar.CmpLE:
		res = c <= 0
	case scalar.CmpGT:
		res = c > 0
	case scalar.CmpGE:
		res = c >= 0
	default:
		return triUnknown
	}
	if res {
		return triTrue
	}
	return triFalse
}

// numericImage widens a numeric datum to float64: INT and DATE through
// their integer payload, FLOAT directly.
func numericImage(d datum.Datum) (float64, bool) {
	switch d.K {
	case datum.KindInt, datum.KindDate:
		return float64(d.I), true
	case datum.KindFloat:
		return d.Float(), true
	}
	return 0, false
}

// compareVals orders two non-NULL datums when they are comparable: any two
// numerics through their float64 images, strings lexicographically, bools
// with false < true. Everything else is incomparable (ok=false).
func compareVals(l, r datum.Datum) (int, bool) {
	if lf, lok := numericImage(l); lok {
		rf, rok := numericImage(r)
		if !rok {
			return 0, false
		}
		switch {
		case lf < rf:
			return -1, true
		case lf > rf:
			return 1, true
		}
		return 0, true
	}
	if l.K != r.K {
		return 0, false
	}
	switch l.K {
	case datum.KindString:
		return strings.Compare(l.Str(), r.Str()), true
	case datum.KindBool:
		switch {
		case !l.Bool() && r.Bool():
			return -1, true
		case l.Bool() && !r.Bool():
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// compareTotal is the reference engine's total order: NULLs first, then
// comparable values by compareVals, then incomparable kind pairs by kind
// number. It must order exactly like datum.TotalCompare — the conformance
// suite and the CompareResults-audit tests pin the agreement — but is
// implemented locally so the ordering the oracle normalizes with is checked
// against an independent spelling of the same contract.
func compareTotal(l, r datum.Datum) int {
	switch {
	case l.IsNull() && r.IsNull():
		return 0
	case l.IsNull():
		return -1
	case r.IsNull():
		return 1
	}
	if c, ok := compareVals(l, r); ok {
		return c
	}
	switch {
	case l.K < r.K:
		return -1
	case l.K > r.K:
		return 1
	}
	return 0
}

// arith applies +, -, × with the pinned numeric-widening rules.
func arith(op scalar.ArithOp, l, r datum.Datum) (datum.Datum, error) {
	if l.IsNull() || r.IsNull() {
		return datum.Null, nil
	}
	if l.K == datum.KindInt && r.K == datum.KindInt {
		switch op {
		case scalar.ArithAdd:
			return datum.NewInt(l.I + r.I), nil
		case scalar.ArithSub:
			return datum.NewInt(l.I - r.I), nil
		case scalar.ArithMul:
			return datum.NewInt(l.I * r.I), nil
		}
	}
	lf, lok := numericImage(l)
	rf, rok := numericImage(r)
	if !lok || !rok {
		return datum.Null, fmt.Errorf("refengine: arithmetic on non-numeric %v %s %v", l, op, r)
	}
	switch op {
	case scalar.ArithAdd:
		return datum.NewFloat(lf + rf), nil
	case scalar.ArithSub:
		return datum.NewFloat(lf - rf), nil
	case scalar.ArithMul:
		return datum.NewFloat(lf * rf), nil
	}
	return datum.Null, fmt.Errorf("refengine: unknown arithmetic op %d", op)
}
