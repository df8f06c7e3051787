package exec

import (
	"qtrtest/internal/datum"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// drain reads an iterator to completion.
func drain(it iterator) ([]datum.Row, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	var out []datum.Row
	for {
		row, err := it.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, row)
	}
}

// rowPair is the row join's predicate and the scratch (left ++ right) row it
// is evaluated over. A candidate pair costs two copies into the scratch; only
// a pair the join emits is allocated a row of its own.
type rowPair struct {
	on                    scalar.Expr
	jt                    physical.JoinType
	env                   scalar.Env
	leftWidth, rightWidth int
	pair                  datum.Row
}

func newRowPair(plan *physical.Expr, ins []*layout, joined *layout) rowPair {
	lw, rw := len(ins[0].cols), len(ins[1].cols)
	return rowPair{
		on: plan.On, jt: plan.JoinType, env: joined.env(),
		leftWidth: lw, rightWidth: rw, pair: make(datum.Row, lw+rw),
	}
}

// setLeft makes l the left half of every pair until the next setLeft.
func (p *rowPair) setLeft(l datum.Row) { copy(p.pair, l) }

// matches evaluates the join predicate over (the current left row ++ r).
func (p *rowPair) matches(r datum.Row) (bool, error) {
	copy(p.pair[p.leftWidth:], r)
	return scalar.EvalBool(p.on, p.pair, p.env)
}

func concatRows(l, r datum.Row) datum.Row {
	out := make(datum.Row, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

func nullRow(n int) datum.Row {
	out := make(datum.Row, n)
	for i := range out {
		out[i] = datum.Null
	}
	return out
}

// keyOf builds a hash key from the given slots; ok is false when any key
// datum is NULL (SQL equality never matches NULLs), and nan reports a NaN
// part. Its text is the Datum.AppendKey sequence, whose equality is the batch
// engine's datum.KeyEqual part by part.
func keyOf(row datum.Row, slots []int) (key string, ok, nan bool) {
	var buf []byte
	for _, s := range slots {
		if row[s].IsNull() {
			return "", false, false
		}
		nan = nan || row[s].IsNaN()
		buf = row[s].AppendKey(buf)
	}
	return string(buf), true, nan
}

// ---- join ------------------------------------------------------------------

// joinIter is the row join, hash and nested loops alike: a probe row's
// candidates are the build rows sharing its key under a hash join, every
// build row under nested loops; each candidate pair is tested against the
// full predicate. NaN is exact, as in the batch join: Compare calls it equal
// to every number, so a probe row with a NaN key part, and every probe row
// when a build key has one, takes the Compare-equal build rows instead.
type joinIter struct {
	rowPair
	left, right iterator

	hash       bool
	leftSlots  []int // hash: key slots in the probe input
	rightSlots []int // hash: key slots in the build input

	table    map[string][]datum.Row // hash: build rows by key, NULL keys left out
	build    []datum.Row            // every build row
	nanBuild bool                   // hash: a build key has a NaN part

	leftRow datum.Row
	cands   []datum.Row
	midx    int
	matched bool

	done bool
}

func (h *joinIter) Open() error {
	rows, err := drain(h.right)
	if err != nil {
		return err
	}
	h.build, h.nanBuild = rows, false
	if h.hash {
		h.table = make(map[string][]datum.Row)
		for _, row := range rows {
			if key, ok, nan := keyOf(row, h.rightSlots); ok {
				h.table[key] = append(h.table[key], row)
				h.nanBuild = h.nanBuild || nan
			}
		}
	}
	h.leftRow, h.cands, h.midx, h.matched, h.done = nil, nil, 0, false, false
	return h.left.Open()
}

func (h *joinIter) Next() (datum.Row, error) {
	if h.done {
		return nil, nil
	}
	for {
		// Emit pending matches for the current left row.
		for h.leftRow != nil && h.midx < len(h.cands) {
			rrow := h.cands[h.midx]
			h.midx++
			ok, err := h.matches(rrow)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			h.matched = true
			switch h.jt {
			case physical.JoinInner, physical.JoinLeft:
				return concatRows(h.leftRow, rrow), nil
			case physical.JoinSemi:
				h.cands = nil // one match suffices
				return h.leftRow, nil
			case physical.JoinAnti:
				h.cands = nil // disqualified
			}
		}
		// Current left row exhausted; handle outer/anti fallout.
		if h.leftRow != nil {
			lrow := h.leftRow
			h.leftRow = nil
			if !h.matched {
				switch h.jt {
				case physical.JoinLeft:
					return concatRows(lrow, nullRow(h.rightWidth)), nil
				case physical.JoinAnti:
					return lrow, nil
				}
			}
		}
		// Advance to the next left row.
		lrow, err := h.left.Next()
		if err != nil {
			return nil, err
		}
		if lrow == nil {
			h.done = true
			return nil, nil
		}
		h.leftRow = lrow
		h.setLeft(lrow)
		h.matched = false
		h.midx = 0
		h.cands = h.build
		if h.hash {
			h.cands = nil
			if key, ok, nan := keyOf(lrow, h.leftSlots); ok && (nan || h.nanBuild) {
				h.cands = h.compareMatches(lrow)
			} else if ok {
				h.cands = h.table[key]
			}
		}
	}
}

// compareMatches returns the build rows whose key parts all Compare-equal
// those of probe row l, in build order.
func (h *joinIter) compareMatches(l datum.Row) []datum.Row {
	var out []datum.Row
rows:
	for _, r := range h.build {
		for i, ls := range h.leftSlots {
			if c, ok := datum.Compare(l[ls], r[h.rightSlots[i]]); !ok || c != 0 {
				continue rows
			}
		}
		out = append(out, r)
	}
	return out
}

func (h *joinIter) Close() error {
	h.table, h.build, h.leftRow, h.cands = nil, nil, nil, nil
	err1 := h.left.Close()
	err2 := h.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
