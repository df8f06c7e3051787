package exec

import (
	"fmt"
	"sort"

	"qtrtest/internal/datum"
	"qtrtest/internal/scalar"
)

// batchAgg is the columnar grouped/scalar aggregation. Aggregate arguments
// are evaluated once per batch (one vectorized pass per aggregate), and rows
// find their group in the exact key table joins use (datum.KeyTable), which
// numbers groups in first-seen order and keeps their column values. The
// accumulators lie in one pooled slice, len(aggs) per group, so a group costs
// no allocation once the scratch has grown. A SortAgg orders its groups by
// their AppendKey text, built once per group: the row engine's order. The
// accumulators are the row engine's aggState, so aggregate semantics —
// including the SUM/AVG non-numeric execution error — live in one place.
type batchAgg struct {
	child     BatchIterator
	groupCols []scalar.ColumnID
	aggs      []scalar.Agg
	ve        scalar.VecEval
	sorted    bool

	// s: args, one vector per aggregate argument; keys and states, the groups;
	// sel, their emission order; vecs, the result columns.
	s   *opScratch
	idx []int
	pos int
	out Batch
}

func (a *batchAgg) Open() error {
	if err := a.child.Open(); err != nil {
		return err
	}
	slots := make([]int, len(a.groupCols))
	for i, c := range a.groupCols {
		s, ok := a.ve.Env[c]
		if !ok {
			return fmt.Errorf("exec: grouping column c%d not in input", c)
		}
		slots[i] = s
	}
	if a.s == nil {
		a.s = getOpScratch()
	}
	s := a.s
	s.args = sizeVecs(s.args, len(a.aggs))
	s.keys.Reset(len(slots))
	if len(slots) == 0 {
		s.keys.Add(nil, nil, 0) // a scalar aggregate is one group, even over no rows
	}
	argVecs, na, states := s.args, len(a.aggs), s.states[:0]
	for {
		b, err := a.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i, ag := range a.aggs {
			if ag.Op == scalar.AggCountStar {
				continue
			}
			if err := a.ve.Eval(ag.Arg, b.Cols, b.Idx, &argVecs[i]); err != nil {
				return err
			}
		}
		for k, ri := range b.Idx {
			g := int(s.keys.Add(b.Cols, slots, ri)) * na
			for len(states) < s.keys.Len()*na {
				states = append(datum.Grow(states, 1), newAggState())
			}
			for i, ag := range a.aggs {
				var d datum.Datum
				if ag.Op != scalar.AggCountStar {
					d = argVecs[i].D[k]
				}
				if err := states[g+i].add(d, ag.Op); err != nil {
					s.states = states
					return err
				}
			}
		}
	}
	groups := s.keys.Len()
	for len(states) < groups*na { // the scalar group over no rows
		states = append(states, newAggState())
	}
	s.states = states
	order := s.sel[:0]
	for g := 0; g < groups; g++ {
		order = append(order, g)
	}
	if a.sorted {
		text := make([]string, groups)
		var buf []byte
		for g := range text {
			buf = buf[:0]
			for _, d := range s.keys.Key(int32(g)) {
				buf = d.AppendKey(buf)
			}
			text[g] = string(buf)
		}
		sort.Slice(order, func(i, j int) bool { return text[order[i]] < text[order[j]] })
	}
	s.sel = order
	s.vecs = sizeVecs(s.vecs, len(slots)+na)
	vecs := s.vecs
	for i := range vecs {
		vecs[i].D = datum.Grow(vecs[i].D, groups)
	}
	for _, g := range order {
		for i, d := range s.keys.Key(int32(g)) {
			vecs[i].Append(d)
		}
		for i, ag := range a.aggs {
			vecs[len(slots)+i].Append(states[g*na+i].result(ag.Op))
		}
	}
	a.idx = iotaSel(groups)
	a.pos = 0
	return nil
}

func (a *batchAgg) Next() (*Batch, error) {
	if a.pos >= len(a.idx) {
		return nil, nil
	}
	end := a.pos + batchSize
	if end > len(a.idx) {
		end = len(a.idx)
	}
	a.out = Batch{Cols: a.s.vecs, Idx: a.idx[a.pos:end]}
	a.pos = end
	return &a.out, nil
}

func (a *batchAgg) Close() error {
	if a.s != nil {
		putOpScratch(a.s)
		a.s = nil
	}
	a.idx, a.out = nil, Batch{}
	return a.child.Close()
}
