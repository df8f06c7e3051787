package scalar

import (
	"fmt"

	"qtrtest/internal/datum"
)

// Env maps ColumnIDs to the positions of the columns being evaluated.
type Env map[ColumnID]int

// datumToTri interprets a datum in predicate position. NULL is Unknown; a
// non-NULL, non-boolean datum is a typed execution error — in value and in
// filter position alike, so NOT (NOT e) and e always filter (or fail) alike.
func datumToTri(d datum.Datum) (datum.Tri, error) {
	if d.IsNull() {
		return datum.Unknown, nil
	}
	if d.K == datum.KindBool {
		return datum.TriFromBool(d.Bool()), nil
	}
	return datum.Unknown, fmt.Errorf("scalar: %v is not a boolean predicate", d)
}

func triToDatum(t datum.Tri) datum.Datum {
	switch t {
	case datum.True:
		return datum.NewBool(true)
	case datum.False:
		return datum.NewBool(false)
	default:
		return datum.Null
	}
}

// evalCmp compares two datums under three-valued logic; it is the one
// comparison kernel under VecEval.Eval and VecEval.EvalPred, and it reads
// its operands where they lie. NULL operands yield Unknown, and —
// deliberately — so does a comparison between incomparable kinds (e.g. INT vs
// STRING): cross-kind comparisons are *documented Unknown*, not an error, on
// every engine. An error here would make Error-vs-OK depend on which plan
// path (hash-join probe vs residual predicate) evaluates the comparison;
// Unknown is order- and path-stable. TypeOf rejects cross-kind comparisons
// statically, so EET rewrites are only emitted where comparisons are
// well-kinded and identities like x = y OR x <> y OR x IS NULL OR y IS NULL
// actually hold. The order is datum.ComparePtr's: numeric kinds meet in
// float64, where integers beyond 2^53 with one image are equal and a NaN is
// neither less nor greater — so =, <= and >= hold for it and <> does not.
func evalCmp(op CmpOp, l, r *datum.Datum) datum.Tri {
	c, ok := datum.ComparePtr(l, r)
	if !ok {
		return datum.Unknown
	}
	switch op {
	case CmpEQ:
		return datum.TriFromBool(c == 0)
	case CmpNE:
		return datum.TriFromBool(c != 0)
	case CmpLT:
		return datum.TriFromBool(c < 0)
	case CmpLE:
		return datum.TriFromBool(c <= 0)
	case CmpGT:
		return datum.TriFromBool(c > 0)
	case CmpGE:
		return datum.TriFromBool(c >= 0)
	}
	return datum.Unknown
}

// evalArith is the one arithmetic kernel under the same two entry points.
// INT op INT stays INT (wrapping); any other pair of numeric kinds computes
// in float64; NULL propagates; anything else is a typed execution error.
func evalArith(op ArithOp, l, r *datum.Datum) (datum.Datum, error) {
	if l.K == datum.KindNull || r.K == datum.KindNull {
		return datum.Null, nil
	}
	if l.K == datum.KindInt && r.K == datum.KindInt {
		switch op {
		case ArithAdd:
			return datum.NewInt(l.I + r.I), nil
		case ArithSub:
			return datum.NewInt(l.I - r.I), nil
		case ArithMul:
			return datum.NewInt(l.I * r.I), nil
		}
	}
	lf, lok := asFloat(l)
	rf, rok := asFloat(r)
	if !lok || !rok {
		return datum.Null, fmt.Errorf("scalar: arithmetic on non-numeric %v %s %v", *l, op, *r)
	}
	switch op {
	case ArithAdd:
		return datum.NewFloat(lf + rf), nil
	case ArithSub:
		return datum.NewFloat(lf - rf), nil
	case ArithMul:
		return datum.NewFloat(lf * rf), nil
	}
	return datum.Null, fmt.Errorf("scalar: unknown arithmetic op %d", op)
}

func asFloat(d *datum.Datum) (float64, bool) {
	switch d.K {
	case datum.KindInt, datum.KindDate:
		return float64(d.I), true
	case datum.KindFloat:
		return d.Float(), true
	}
	return 0, false
}
