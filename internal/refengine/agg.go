package refengine

import (
	"fmt"
	"sort"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// This file is the reference engine's own aggregation. Grouping is
// sort-based (stable sort on the group columns, then adjacent runs of
// compare-equal keys form groups) rather than hash-based like the
// production engines, so the two implementations cannot share a bug in key
// encoding — the class of fault PR 6's non-injective Row.Key was. Group
// equality follows the oracle's normalization contract: NULL groups with
// NULL, and numeric kinds group through their float64 image (INT 1 and
// FLOAT 1.0 are one group), exactly like datum.AppendKey folds them on the
// production engines. The group's representative values are those of its
// first row in input order; stable sorting preserves that choice.
//
// The pinned aggregate semantics:
//
//   - COUNT(*) counts rows; COUNT(x) counts non-NULL inputs;
//   - SUM skips NULLs, is NULL over no non-NULL input, stays a wrapping
//     int64 while every input is INT/DATE and widens to FLOAT otherwise;
//   - SUM/AVG over a non-numeric input is an execution error;
//   - MIN/MAX accept any kind, ordered by the total order, skipping NULLs;
//   - AVG is always FLOAT (sum/count over non-NULL inputs), NULL when no
//     non-NULL input;
//   - scalar aggregation (no group columns) over empty input yields one
//     row; grouped aggregation over empty input yields none.

// accum accumulates one aggregate over one group.
type accum struct {
	rows    int64 // all rows, for COUNT(*)
	nonNull int64 // non-NULL inputs
	sumI    int64
	sumF    float64
	allInt  bool
	min     datum.Datum
	max     datum.Datum
}

func newAccum() *accum {
	return &accum{allInt: true, min: datum.Null, max: datum.Null}
}

func (a *accum) add(d datum.Datum, op scalar.AggOp) error {
	if op == scalar.AggCountStar {
		a.rows++
		return nil
	}
	if d.IsNull() {
		return nil
	}
	a.nonNull++
	switch d.K {
	case datum.KindInt, datum.KindDate:
		a.sumI += d.I
		a.sumF += float64(d.I)
	case datum.KindFloat:
		a.allInt = false
		a.sumF += d.Float()
	default:
		if op == scalar.AggSum || op == scalar.AggAvg {
			return fmt.Errorf("refengine: %s over non-numeric %s value", op, d.TypeOf())
		}
		a.allInt = false
	}
	if a.min.IsNull() || compareTotal(d, a.min) < 0 {
		a.min = d
	}
	if a.max.IsNull() || compareTotal(d, a.max) > 0 {
		a.max = d
	}
	return nil
}

func (a *accum) result(op scalar.AggOp) datum.Datum {
	switch op {
	case scalar.AggCountStar:
		return datum.NewInt(a.rows)
	case scalar.AggCount:
		return datum.NewInt(a.nonNull)
	case scalar.AggSum:
		switch {
		case a.nonNull == 0:
			return datum.Null
		case a.allInt:
			return datum.NewInt(a.sumI)
		}
		return datum.NewFloat(a.sumF)
	case scalar.AggMin:
		return a.min
	case scalar.AggMax:
		return a.max
	case scalar.AggAvg:
		if a.nonNull == 0 {
			return datum.Null
		}
		return datum.NewFloat(a.sumF / float64(a.nonNull))
	}
	return datum.Null
}

// groupBy evaluates a GroupBy node over its materialized input. Output
// order is group-key order (a byproduct of sort-based grouping); the
// production engines emit first-appearance order, which the multiset
// comparison in the oracle is insensitive to.
func groupBy(e *logical.Expr, in []datum.Row, sc scope) ([]datum.Row, error) {
	slots := make([]int, len(e.GroupCols))
	for i, c := range e.GroupCols {
		slot, ok := sc[c]
		if !ok {
			return nil, fmt.Errorf("refengine: grouping column c%d not in input", c)
		}
		slots[i] = slot
	}
	if len(e.GroupCols) == 0 {
		// Scalar aggregation: one group over the whole input, present even
		// when the input is empty.
		row, err := aggRow(e.Aggs, nil, in, sc)
		if err != nil {
			return nil, err
		}
		return []datum.Row{row}, nil
	}
	if len(in) == 0 {
		return nil, nil
	}
	order := make([]int, len(in))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		ri, rj := in[order[i]], in[order[j]]
		for _, s := range slots {
			if c := compareTotal(ri[s], rj[s]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	sameGroup := func(a, b datum.Row) bool {
		for _, s := range slots {
			if compareTotal(a[s], b[s]) != 0 {
				return false
			}
		}
		return true
	}
	var out []datum.Row
	for start := 0; start < len(order); {
		end := start + 1
		for end < len(order) && sameGroup(in[order[start]], in[order[end]]) {
			end++
		}
		group := make([]datum.Row, 0, end-start)
		for _, idx := range order[start:end] {
			group = append(group, in[idx])
		}
		rep := make(datum.Row, len(slots))
		for i, s := range slots {
			rep[i] = group[0][s]
		}
		row, err := aggRow(e.Aggs, rep, group, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
		start = end
	}
	return out, nil
}

// aggRow computes one output row: the group's representative values
// followed by each aggregate's result over the group's rows.
func aggRow(aggs []scalar.Agg, rep datum.Row, group []datum.Row, sc scope) (datum.Row, error) {
	out := make(datum.Row, 0, len(rep)+len(aggs))
	out = append(out, rep...)
	for _, ag := range aggs {
		acc := newAccum()
		for _, row := range group {
			var d datum.Datum
			if ag.Op != scalar.AggCountStar {
				var err error
				d, err = evalScalar(ag.Arg, row, sc)
				if err != nil {
					return nil, err
				}
			}
			if err := acc.add(d, ag.Op); err != nil {
				return nil, err
			}
		}
		out = append(out, acc.result(ag.Op))
	}
	return out, nil
}
