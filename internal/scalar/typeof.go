package scalar

import (
	"fmt"

	"qtrtest/internal/datum"
)

// TypeEnv resolves a ColumnID to its declared type. The second result is
// false when the column is unknown to the environment.
type TypeEnv func(ColumnID) (datum.Type, bool)

// TypeOf type-checks e under env and returns its static type. It is the
// soundness gate for EET rewrites: an expression accepted by TypeOf never
// raises a typed execution error at runtime (given an env that matches the
// data), every comparison it contains is between comparable kinds, and
// every AND/OR/NOT operand is boolean — so NULL-aware identities hold
// exactly.
//
// datum.TypeUnknown is the type of the NULL literal and acts as a wildcard:
// it is comparable to anything, numeric where a number is expected, and
// boolean where a predicate is expected, because a NULL operand yields
// NULL/Unknown in all of those positions rather than an error.
func TypeOf(e Expr, env TypeEnv) (datum.Type, error) {
	switch t := e.(type) {
	case *ColRef:
		ty, ok := env(t.ID)
		if !ok {
			return datum.TypeUnknown, fmt.Errorf("scalar: column c%d not in type environment", t.ID)
		}
		return ty, nil
	case *Const:
		if t.D.IsNull() {
			return datum.TypeUnknown, nil
		}
		return t.D.TypeOf(), nil
	case *Cmp:
		l, err := TypeOf(t.L, env)
		if err != nil {
			return datum.TypeUnknown, err
		}
		r, err := TypeOf(t.R, env)
		if err != nil {
			return datum.TypeUnknown, err
		}
		if !typesComparable(l, r) {
			return datum.TypeUnknown, fmt.Errorf("scalar: cannot compare %v to %v", l, r)
		}
		return datum.TypeBool, nil
	case *Arith:
		l, err := TypeOf(t.L, env)
		if err != nil {
			return datum.TypeUnknown, err
		}
		r, err := TypeOf(t.R, env)
		if err != nil {
			return datum.TypeUnknown, err
		}
		if !typeNumericOrNull(l) || !typeNumericOrNull(r) {
			return datum.TypeUnknown, fmt.Errorf("scalar: arithmetic on non-numeric %v %s %v", l, t.Op, r)
		}
		if l == datum.TypeUnknown || r == datum.TypeUnknown {
			return datum.TypeUnknown, nil
		}
		if l == datum.TypeInt && r == datum.TypeInt {
			return datum.TypeInt, nil
		}
		return datum.TypeFloat, nil
	case *And:
		return typeOfConnective(t.Kids, env)
	case *Or:
		return typeOfConnective(t.Kids, env)
	case *Not:
		k, err := TypeOf(t.Kid, env)
		if err != nil {
			return datum.TypeUnknown, err
		}
		if !typeBoolOrNull(k) {
			return datum.TypeUnknown, fmt.Errorf("scalar: NOT over non-boolean %v", k)
		}
		return datum.TypeBool, nil
	case *IsNull:
		if _, err := TypeOf(t.Kid, env); err != nil {
			return datum.TypeUnknown, err
		}
		return datum.TypeBool, nil
	default:
		return datum.TypeUnknown, fmt.Errorf("scalar: cannot type %T", e)
	}
}

func typeOfConnective(kids []Expr, env TypeEnv) (datum.Type, error) {
	for _, k := range kids {
		ty, err := TypeOf(k, env)
		if err != nil {
			return datum.TypeUnknown, err
		}
		if !typeBoolOrNull(ty) {
			return datum.TypeUnknown, fmt.Errorf("scalar: connective over non-boolean %v", ty)
		}
	}
	return datum.TypeBool, nil
}

// typeNumeric mirrors datum.Compare's numeric family: INT, FLOAT and DATE
// share an order (dates compare through their day number) and all take the
// arithmetic path.
func typeNumeric(t datum.Type) bool {
	return t == datum.TypeInt || t == datum.TypeFloat || t == datum.TypeDate
}

func typeNumericOrNull(t datum.Type) bool { return t == datum.TypeUnknown || typeNumeric(t) }

func typeBoolOrNull(t datum.Type) bool { return t == datum.TypeUnknown || t == datum.TypeBool }

// typesComparable mirrors datum.Compare: the numeric family is mutually
// comparable, everything else only to its own type; NULL to anything.
func typesComparable(l, r datum.Type) bool {
	if l == datum.TypeUnknown || r == datum.TypeUnknown {
		return true
	}
	if typeNumeric(l) && typeNumeric(r) {
		return true
	}
	return l == r
}

// ErrFreePred reports whether e is statically guaranteed to evaluate
// without error as a predicate under env: it yields only BOOL or NULL, and
// no subexpression can raise a typed or data-dependent execution error.
// This is a syntactic check (no column types needed): column references in
// predicate position are NOT errFree, since the environment cannot prove
// them boolean.
func ErrFreePred(e Expr, env Env) bool {
	switch t := e.(type) {
	case *Const:
		return t.D.IsNull() || t.D.K == datum.KindBool
	case *Cmp:
		return errFreeValue(t.L, env) && errFreeValue(t.R, env)
	case *IsNull:
		return errFreeValue(t.Kid, env)
	case *And:
		for _, k := range t.Kids {
			if !ErrFreePred(k, env) {
				return false
			}
		}
		return true
	case *Or:
		for _, k := range t.Kids {
			if !ErrFreePred(k, env) {
				return false
			}
		}
		return true
	case *Not:
		return ErrFreePred(t.Kid, env)
	}
	return false
}

// errFreeValue reports whether evaluating e (in any value position) cannot
// error: bound column references and constants are safe, arithmetic is not
// (its operands' kinds are data-dependent), and predicates are safe iff
// ErrFreePred says so.
func errFreeValue(e Expr, env Env) bool {
	switch t := e.(type) {
	case *ColRef:
		_, ok := env[t.ID]
		return ok
	case *Const:
		return true
	default:
		return ErrFreePred(e, env)
	}
}
