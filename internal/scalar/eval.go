package scalar

import (
	"fmt"

	"qtrtest/internal/datum"
)

// Env maps ColumnIDs to slots in the row currently being evaluated.
type Env map[ColumnID]int

// Eval evaluates the expression against row under env. Boolean-valued
// expressions yield a BOOL datum or NULL (three-valued logic).
func Eval(e Expr, row datum.Row, env Env) (datum.Datum, error) {
	switch t := e.(type) {
	case *ColRef:
		slot, ok := env[t.ID]
		if !ok {
			return datum.Null, fmt.Errorf("scalar: column c%d not in scope", t.ID)
		}
		return row[slot], nil
	case *Const:
		return t.D, nil
	case *Cmp:
		l, err := Eval(t.L, row, env)
		if err != nil {
			return datum.Null, err
		}
		r, err := Eval(t.R, row, env)
		if err != nil {
			return datum.Null, err
		}
		return triToDatum(evalCmp(t.Op, &l, &r)), nil
	case *Arith:
		l, err := Eval(t.L, row, env)
		if err != nil {
			return datum.Null, err
		}
		r, err := Eval(t.R, row, env)
		if err != nil {
			return datum.Null, err
		}
		return evalArith(t.Op, &l, &r)
	case *And:
		// Errors dominate: every kid is evaluated before folding, so a
		// conjunct that errors surfaces the error even when an earlier
		// conjunct is already FALSE. This keeps Error-vs-OK stable under
		// conjunct reordering and matches the vector engine.
		res := datum.True
		for _, k := range t.Kids {
			d, err := Eval(k, row, env)
			if err != nil {
				return datum.Null, err
			}
			tri, err := datumToTri(d)
			if err != nil {
				return datum.Null, err
			}
			res = res.And(tri)
		}
		return triToDatum(res), nil
	case *Or:
		res := datum.False
		for _, k := range t.Kids {
			d, err := Eval(k, row, env)
			if err != nil {
				return datum.Null, err
			}
			tri, err := datumToTri(d)
			if err != nil {
				return datum.Null, err
			}
			res = res.Or(tri)
		}
		return triToDatum(res), nil
	case *Not:
		d, err := Eval(t.Kid, row, env)
		if err != nil {
			return datum.Null, err
		}
		tri, err := datumToTri(d)
		if err != nil {
			return datum.Null, err
		}
		return triToDatum(tri.Not()), nil
	case *IsNull:
		d, err := Eval(t.Kid, row, env)
		if err != nil {
			return datum.Null, err
		}
		return datum.NewBool(d.IsNull()), nil
	default:
		return datum.Null, fmt.Errorf("scalar: cannot evaluate %T", e)
	}
}

// EvalBool evaluates a predicate; NULL counts as false (WHERE semantics).
// A non-NULL, non-boolean result is a typed execution error, matching the
// vector engine's EvalPred.
func EvalBool(e Expr, row datum.Row, env Env) (bool, error) {
	d, err := Eval(e, row, env)
	if err != nil {
		return false, err
	}
	tri, err := datumToTri(d)
	if err != nil {
		return false, err
	}
	return tri == datum.True, nil
}

// datumToTri interprets a datum in predicate position. NULL is Unknown; a
// non-NULL, non-boolean datum is a typed execution error — both engines
// share this rule, so NOT (NOT e) and e always filter (or fail) alike.
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
// comparison kernel under Eval, EvalBool, VecEval.Eval and VecEval.EvalPred,
// and it reads its operands where they lie. NULL operands yield Unknown, and
// — deliberately — so does a comparison between incomparable kinds (e.g. INT
// vs STRING): cross-kind comparisons are *documented Unknown*, not an error,
// on both engines. An error here would make Error-vs-OK depend on which plan
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

// evalArith is the one arithmetic kernel under the same four entry points.
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
