package exec

import (
	"fmt"
	"sort"

	"qtrtest/internal/datum"
	"qtrtest/internal/scalar"
)

// aggIter implements grouped and scalar aggregation. Grouping is hash-based;
// with sorted=true output groups are emitted in group-key order (matching the
// determinism of a stream aggregate fed by a sort).
type aggIter struct {
	child     iterator
	groupCols []scalar.ColumnID
	aggs      []scalar.Agg
	env       scalar.Env
	sorted    bool

	out []datum.Row
	pos int
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count  int64 // non-null inputs (or all rows for COUNT(*))
	sumI   int64
	sumF   float64
	allInt bool
	min    datum.Datum
	max    datum.Datum
	sawRow bool
}

func newAggState() aggState {
	return aggState{allInt: true, min: datum.Null, max: datum.Null}
}

func (s *aggState) add(d datum.Datum, op scalar.AggOp) error {
	if op == scalar.AggCountStar {
		s.count++
		return nil
	}
	if d.IsNull() {
		return nil
	}
	s.count++
	s.sawRow = true
	switch d.K {
	case datum.KindInt, datum.KindDate:
		s.sumI += d.I
		s.sumF += float64(d.I)
	case datum.KindFloat:
		s.allInt = false
		s.sumF += d.Float()
	default:
		// SUM/AVG over a non-numeric input used to fall through here without
		// accumulating anything, so result() silently returned 0.0 — a wrong
		// answer the differential oracle would then trust. Surface it as an
		// execution error instead. COUNT/MIN/MAX are defined for any kind
		// (MIN/MAX order mixed kinds by datum.TotalCompare) and stay legal.
		if op == scalar.AggSum || op == scalar.AggAvg {
			return fmt.Errorf("exec: %s over non-numeric %s value", op, d.TypeOf())
		}
		s.allInt = false
	}
	if s.min.IsNull() || datum.TotalCompare(d, s.min) < 0 {
		s.min = d
	}
	if s.max.IsNull() || datum.TotalCompare(d, s.max) > 0 {
		s.max = d
	}
	return nil
}

func (s *aggState) result(op scalar.AggOp) datum.Datum {
	switch op {
	case scalar.AggCountStar, scalar.AggCount:
		return datum.NewInt(s.count)
	case scalar.AggSum:
		if !s.sawRow {
			return datum.Null
		}
		if s.allInt {
			return datum.NewInt(s.sumI)
		}
		return datum.NewFloat(s.sumF)
	case scalar.AggMin:
		return s.min
	case scalar.AggMax:
		return s.max
	case scalar.AggAvg:
		if s.count == 0 {
			return datum.Null
		}
		return datum.NewFloat(s.sumF / float64(s.count))
	}
	return datum.Null
}

type aggGroup struct {
	key    string
	rep    datum.Row // group column values
	states []aggState
}

func (a *aggIter) Open() error {
	if err := a.child.Open(); err != nil {
		return err
	}
	slots := make([]int, len(a.groupCols))
	for i, c := range a.groupCols {
		s, ok := a.env[c]
		if !ok {
			return fmt.Errorf("exec: grouping column c%d not in input", c)
		}
		slots[i] = s
	}
	groups := make(map[string]*aggGroup)
	var order []*aggGroup
	var keyBuf []byte
	for {
		row, err := a.child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		keyBuf = keyBuf[:0]
		rep := make(datum.Row, len(slots))
		for i, s := range slots {
			rep[i] = row[s]
			keyBuf = rep[i].AppendKey(keyBuf)
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = &aggGroup{key: string(keyBuf), rep: rep, states: make([]aggState, len(a.aggs))}
			for i := range g.states {
				g.states[i] = newAggState()
			}
			groups[g.key] = g
			order = append(order, g)
		}
		for i, ag := range a.aggs {
			var d datum.Datum
			if ag.Op != scalar.AggCountStar {
				var err error
				d, err = scalar.Eval(ag.Arg, row, a.env)
				if err != nil {
					return err
				}
			}
			if err := g.states[i].add(d, ag.Op); err != nil {
				return err
			}
		}
	}
	// Scalar aggregation over empty input yields one row (COUNT=0, others
	// NULL), per SQL semantics.
	if len(a.groupCols) == 0 && len(order) == 0 {
		g := &aggGroup{states: make([]aggState, len(a.aggs))}
		for i := range g.states {
			g.states[i] = newAggState()
		}
		order = append(order, g)
	}
	if a.sorted {
		sort.Slice(order, func(i, j int) bool { return order[i].key < order[j].key })
	}
	a.out = a.out[:0]
	for _, g := range order {
		row := make(datum.Row, 0, len(a.groupCols)+len(a.aggs))
		row = append(row, g.rep...)
		for i, ag := range a.aggs {
			row = append(row, g.states[i].result(ag.Op))
		}
		a.out = append(a.out, row)
	}
	a.pos = 0
	return nil
}

func (a *aggIter) Next() (datum.Row, error) {
	if a.pos >= len(a.out) {
		return nil, nil
	}
	row := a.out[a.pos]
	a.pos++
	return row, nil
}

func (a *aggIter) Close() error {
	a.out = nil
	return a.child.Close()
}
