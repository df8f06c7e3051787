package exec

import (
	"cmp"
	"fmt"
	"slices"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// EqualMultisets reports whether two result sets contain the same rows with
// the same multiplicities, ignoring order. This is the base correctness
// oracle: two plans for the same query must produce equal multisets. Rows are
// the same row when rowCmp calls them equal.
func EqualMultisets(a, b []datum.Row) bool {
	return len(a) == len(b) && multisetDiff(a, b) < 0
}

// DiffSummary describes the first discrepancy between two result multisets,
// for correctness-bug reports: the first row, in the second result's order,
// that the second result holds more often than the first.
func DiffSummary(a, b []datum.Row) string {
	if len(a) != len(b) {
		return fmt.Sprintf("row count mismatch: %d vs %d", len(a), len(b))
	}
	if k := multisetDiff(a, b); k >= 0 {
		return fmt.Sprintf("row %v appears more often in the second result", b[k])
	}
	return ""
}

// multisetDiff compares two results of one length as multisets without
// re-encoding a row. Results that agree row for row under rowCmp are equal
// multisets, and most do, so it first walks them side by side. Otherwise it
// sorts a permutation of each by rowCmp, ties by position, and walks the two
// side by side, matching each row of b to the next equal row of a where both
// lie. It returns -1 when every row matched, else the first unmatched row of b
// in b's order: the first whose count in b up to there exceeds its count in a.
func multisetDiff(a, b []datum.Row) int {
	i := 0
	for i < len(a) && rowCmp(a[i], b[i]) == 0 {
		i++
	}
	if i == len(a) {
		return -1
	}
	pa, pb := sortedPerm(a), sortedPerm(b)
	witness, i := -1, 0
	for _, j := range pb {
		c := -1
		for ; i < len(pa); i++ {
			if c = rowCmp(a[pa[i]], b[j]); c >= 0 {
				break
			}
		}
		if c == 0 {
			i++
		} else if witness < 0 || int(j) < witness {
			witness = int(j)
		}
	}
	return witness
}

// sortedPerm returns the positions of rows sorted by rowCmp, equal rows in
// their order.
func sortedPerm(rows []datum.Row) []int32 {
	p := make([]int32, len(rows))
	for i := range p {
		p[i] = int32(i)
	}
	slices.SortFunc(p, func(i, j int32) int {
		if c := rowCmp(rows[i], rows[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	return p
}

// rowCmp is the oracle's total order on rows: value by value under valueCmp,
// then the shorter row first. Rows it calls equal are the same row to
// EqualMultisets.
func rowCmp(a, b datum.Row) int {
	for s := 0; s < len(a) && s < len(b); s++ {
		if c := valueCmp(&a[s], &b[s]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// valueClass ranks the kinds valueCmp tells apart: NULL, numbers, strings,
// bools.
var valueClass = [...]uint8{
	datum.KindNull: 0, datum.KindInt: 1, datum.KindFloat: 1, datum.KindDate: 1,
	datum.KindString: 2, datum.KindBool: 3,
}

// valueCmp orders values by class, then by value. INT, DATE and FLOAT are one
// class compared through their float64 image, so −0 equals +0 and integers
// beyond 2^53 that share an image are equal; NaN is one value, below every
// number. It cannot be datum.TotalCompare, whose Compare calls NaN equal to
// every number: that is no order to sort by, and it would fold {NaN} into {1}.
func valueCmp(a, b *datum.Datum) int {
	ca, cb := valueClass[a.K], valueClass[b.K]
	if ca != cb {
		return cmp.Compare(ca, cb)
	}
	switch a.K {
	case datum.KindInt, datum.KindFloat, datum.KindDate:
		return cmp.Compare(numImage(a), numImage(b))
	case datum.KindString:
		if a.I == b.I {
			return 0
		}
		return cmp.Compare(a.Str(), b.Str())
	case datum.KindBool:
		if ab := a.Bool(); ab != b.Bool() {
			if ab {
				return 1
			}
			return -1
		}
	}
	return 0
}

// numImage is the float64 a numeric value compares through.
func numImage(d *datum.Datum) float64 {
	if d.K == datum.KindFloat {
		return d.Float()
	}
	return float64(d.I)
}

// Verdict classifies the outcome of comparing two executions of the same
// query.
type Verdict int

// Comparison verdicts.
const (
	// VerdictEqual means the results are compatible: no bug.
	VerdictEqual Verdict = iota
	// VerdictMismatch means the results cannot both be correct: a
	// correctness bug in one of the plans.
	VerdictMismatch
	// VerdictUndetermined means the results differ but the query's semantics
	// do not fully determine its output (a LIMIT without a total order), so
	// two correct plans may legally disagree.
	VerdictUndetermined
)

var verdictNames = [...]string{"equal", "mismatch", "undetermined"}

// String returns the verdict name.
func (v Verdict) String() string { return verdictNames[v] }

// PlanOrder describes the output-ordering contract of a plan root, computed
// by RootOrder. The oracle uses it to compare ordered results
// order-sensitively and to recognize under-determined queries.
type PlanOrder struct {
	// Sorted reports that the root establishes an output ordering: a Sort
	// reaches the root through order-preserving operators (Limit, Filter,
	// Project).
	Sorted bool
	// Slots and Descs give, per surviving sort key, the output row slot
	// holding the key value and the sort direction. A key whose column is
	// projected away (or computed over) truncates the list; the remaining
	// prefix still orders the output.
	Slots []int
	Descs []bool
	// HasLimit reports a Limit anywhere in the plan. Row counts stay
	// deterministic (LIMIT N yields min(N, |input|) rows), but which rows
	// survive may not be.
	HasLimit bool
	// LimitBelowSort reports a Limit beneath the root ordering's Sort, which
	// leaves even the sorted content under-determined.
	LimitBelowSort bool
}

// RootOrder computes the ordering contract of a plan's output: whether a
// Sort survives to the root, which output slots carry its keys, and where
// Limits sit relative to it.
func RootOrder(plan *physical.Expr) PlanOrder {
	o := PlanOrder{HasLimit: hasLimit(plan)}
	var projs [][]logical.ProjItem
	cur := plan
walk:
	for {
		switch cur.Op {
		case physical.OpLimit, physical.OpFilter:
			cur = cur.Children[0]
		case physical.OpProject:
			projs = append(projs, cur.Projs)
			cur = cur.Children[0]
		case physical.OpSort:
			slots := envOf(plan.OutputCols())
			for i, k := range cur.Keys {
				col, ok := liftCol(k.Col, projs)
				if !ok {
					break
				}
				slot, ok := slots[col]
				if !ok {
					break
				}
				o.Slots = append(o.Slots, slot)
				o.Descs = append(o.Descs, cur.Keys[i].Desc)
			}
			o.Sorted = len(o.Slots) > 0
			if o.Sorted {
				o.LimitBelowSort = hasLimit(cur.Children[0])
			}
			break walk
		default:
			break walk
		}
	}
	return o
}

// liftCol maps a column produced below the crossed projections (outermost
// first) to the corresponding root output column; ok is false when a
// projection drops the column or computes an expression over it.
func liftCol(col scalar.ColumnID, projs [][]logical.ProjItem) (scalar.ColumnID, bool) {
	for i := len(projs) - 1; i >= 0; i-- {
		found := false
		for _, it := range projs[i] {
			if ref, ok := it.E.(*scalar.ColRef); ok && ref.ID == col {
				col = it.Out
				found = true
				break
			}
		}
		if !found {
			return 0, false
		}
	}
	return col, true
}

func hasLimit(e *physical.Expr) bool {
	if e.Op == physical.OpLimit {
		return true
	}
	for _, c := range e.Children {
		if hasLimit(c) {
			return true
		}
	}
	return false
}

// CompareResults is the order-aware correctness oracle: it compares the
// results of two plans for the same query given each plan's ordering
// contract.
//
// Row counts are deterministic even under LIMIT, so a count difference is
// always a mismatch. When both roots are ordered, the sort-key value
// sequences must agree position by position (rows within a tie group may
// legally be permuted); a flipped or wrong sort order is therefore a
// mismatch, which a pure multiset comparison would miss. Differences that a
// LIMIT without a total order can explain — different rows surviving the
// cut, or different tie-group rows at a sorted LIMIT boundary — yield
// VerdictUndetermined rather than accusing a correct plan.
func CompareResults(base []datum.Row, baseOrder PlanOrder, alt []datum.Row, altOrder PlanOrder) (Verdict, string) {
	if len(base) != len(alt) {
		return VerdictMismatch, fmt.Sprintf("row count mismatch: %d vs %d", len(base), len(alt))
	}
	equalMulti := EqualMultisets(base, alt)
	nkeys := len(baseOrder.Slots)
	if len(altOrder.Slots) < nkeys {
		nkeys = len(altOrder.Slots)
	}
	if baseOrder.Sorted && altOrder.Sorted && nkeys > 0 {
		if r, k := keySeqDiff(base, baseOrder, alt, altOrder, nkeys); r >= 0 {
			if baseOrder.LimitBelowSort || altOrder.LimitBelowSort {
				return VerdictUndetermined, fmt.Sprintf(
					"sort-key sequences diverge at row %d, but a LIMIT below the ORDER BY leaves the sorted content under-determined", r)
			}
			return VerdictMismatch, fmt.Sprintf("ordered results diverge at row %d: sort key %v vs %v",
				r, base[r][baseOrder.Slots[k]], alt[r][altOrder.Slots[k]])
		}
		if equalMulti {
			return VerdictEqual, ""
		}
		if baseOrder.HasLimit || altOrder.HasLimit {
			return VerdictUndetermined, "equal sort-key sequences but row multisets differ at a LIMIT boundary: " + DiffSummary(base, alt)
		}
		return VerdictMismatch, DiffSummary(base, alt)
	}
	if equalMulti {
		return VerdictEqual, ""
	}
	if baseOrder.HasLimit || altOrder.HasLimit {
		return VerdictUndetermined, "LIMIT without a total order: " + DiffSummary(base, alt)
	}
	return VerdictMismatch, DiffSummary(base, alt)
}

// keySeqDiff returns the first (row, key) position where the two ordered
// results' sort-key value sequences disagree, or (-1, 0) if they match.
func keySeqDiff(a []datum.Row, ao PlanOrder, b []datum.Row, bo PlanOrder, nkeys int) (int, int) {
	for r := range a {
		for k := 0; k < nkeys; k++ {
			if datum.TotalCompare(a[r][ao.Slots[k]], b[r][bo.Slots[k]]) != 0 {
				return r, k
			}
		}
	}
	return -1, 0
}
