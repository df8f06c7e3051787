package logical

import "qtrtest/internal/scalar"

// RejectsNullsOn reports whether the predicate is guaranteed to evaluate to
// non-TRUE whenever every column in cols is NULL. Used by outer-join
// simplification: a null-rejecting filter above a LEFT JOIN lets the join
// become inner. The analysis is conservative: only shapes known to reject
// NULLs return true.
func RejectsNullsOn(pred scalar.Expr, cols scalar.ColSet) bool {
	switch t := pred.(type) {
	case *scalar.And:
		for _, k := range t.Kids {
			if RejectsNullsOn(k, cols) {
				return true
			}
		}
		return false
	case *scalar.Or:
		if len(t.Kids) == 0 {
			return false
		}
		for _, k := range t.Kids {
			if !RejectsNullsOn(k, cols) {
				return false
			}
		}
		return true
	case *scalar.Cmp:
		// A comparison evaluates to UNKNOWN when either side is NULL, so it
		// rejects NULLs on any column it references.
		refs := scalar.ReferencedCols(t)
		return refs.Intersects(cols)
	default:
		return false
	}
}

// EquiJoinCols extracts the column pairs of conjuncts of the form
// (colA = colB) where colA is produced by left and colB by right (or vice
// versa; pairs are normalized left-first). remainder receives the conjuncts
// that are not such equalities.
func EquiJoinCols(on scalar.Expr, left, right scalar.ColSet) (pairs [][2]scalar.ColumnID, remainder []scalar.Expr) {
	var buf [8]scalar.Expr
	for _, c := range scalar.AppendConjuncts(buf[:0], on) {
		if l, r, ok := EquiPair(c, left, right); ok {
			pairs = append(pairs, [2]scalar.ColumnID{l, r})
		} else {
			remainder = append(remainder, c)
		}
	}
	return pairs, remainder
}

// EquiPair reports whether conjunct c is an equality between a column of left
// and a column of right, and returns the two, left first.
func EquiPair(c scalar.Expr, left, right scalar.ColSet) (l, r scalar.ColumnID, ok bool) {
	cmp, ok := c.(*scalar.Cmp)
	if !ok || cmp.Op != scalar.CmpEQ {
		return 0, 0, false
	}
	lref, lok := cmp.L.(*scalar.ColRef)
	rref, rok := cmp.R.(*scalar.ColRef)
	switch {
	case !lok || !rok:
	case left.Contains(lref.ID) && right.Contains(rref.ID):
		return lref.ID, rref.ID, true
	case left.Contains(rref.ID) && right.Contains(lref.ID):
		return rref.ID, lref.ID, true
	}
	return 0, 0, false
}

// AggsReferenceOnly reports whether every aggregate argument references only
// columns in allowed.
func AggsReferenceOnly(aggs []scalar.Agg, allowed scalar.ColSet) bool {
	for _, a := range aggs {
		if a.Arg == nil {
			continue
		}
		if !scalar.ReferencedCols(a.Arg).SubsetOf(allowed) {
			return false
		}
	}
	return true
}
