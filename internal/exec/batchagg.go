package exec

import (
	"fmt"
	"sort"

	"qtrtest/internal/datum"
	"qtrtest/internal/scalar"
)

// batchAgg is the columnar grouped/scalar aggregation. Aggregate arguments
// are evaluated once per batch (one vectorized pass per aggregate), and group
// keys go through an allocation-free two-step index: only the first row of
// each distinct group allocates its key string. The accumulators are the row
// engine's aggState, so aggregate semantics — including the SUM/AVG
// non-numeric execution error — live in exactly one place.
type batchAgg struct {
	child     BatchIterator
	groupCols []scalar.ColumnID
	aggs      []scalar.Agg
	ve        scalar.VecEval
	sorted    bool

	keyBuf []byte

	s   *opScratch // args: one vector per aggregate argument; vecs: the transposed result rows
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
	a.s.args = sizeVecs(a.s.args, len(a.aggs))
	argVecs := a.s.args
	groups := make(map[string]*aggGroup)
	var order []*aggGroup
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
			a.keyBuf = a.keyBuf[:0]
			for _, s := range slots {
				a.keyBuf = b.Cols[s].D[ri].AppendKey(a.keyBuf)
			}
			g, ok := groups[string(a.keyBuf)]
			if !ok {
				rep := make(datum.Row, len(slots))
				for i, s := range slots {
					rep[i] = b.Cols[s].D[ri]
				}
				g = &aggGroup{key: string(a.keyBuf), rep: rep, states: make([]*aggState, len(a.aggs))}
				for i := range g.states {
					g.states[i] = newAggState()
				}
				groups[g.key] = g
				order = append(order, g)
			}
			for i, ag := range a.aggs {
				var d datum.Datum
				if ag.Op != scalar.AggCountStar {
					d = argVecs[i].D[k]
				}
				if err := g.states[i].add(d, ag.Op); err != nil {
					return err
				}
			}
		}
	}
	// Scalar aggregation over empty input yields one row (COUNT=0, others
	// NULL), per SQL semantics.
	if len(a.groupCols) == 0 && len(order) == 0 {
		g := &aggGroup{states: make([]*aggState, len(a.aggs))}
		for i := range g.states {
			g.states[i] = newAggState()
		}
		order = append(order, g)
	}
	if a.sorted {
		// Key strings use the same injective encoding in both engines, so
		// this order is byte-for-byte the row engine's.
		sort.Slice(order, func(i, j int) bool { return order[i].key < order[j].key })
	}
	a.s.vecs = sizeVecs(a.s.vecs, len(a.groupCols)+len(a.aggs))
	vecs := a.s.vecs
	for _, g := range order {
		for i := range g.rep {
			vecs[i].Append(g.rep[i])
		}
		for i, ag := range a.aggs {
			vecs[len(a.groupCols)+i].Append(g.states[i].result(ag.Op))
		}
	}
	a.idx = iotaSel(len(order))
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
