package exec

import (
	"sort"

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

// rowPair is what the row joins share: the join predicate and the scratch
// (left ++ right) row it is evaluated over. A candidate pair costs two copies
// into the scratch; only a pair the join emits is allocated a row of its own.
type rowPair struct {
	on                    scalar.Expr
	jt                    physical.JoinType
	env                   scalar.Env
	leftWidth, rightWidth int
	pair                  datum.Row
}

func newRowPair(plan *physical.Expr, ins []*layout, out *layout) rowPair {
	lw, rw := len(ins[0].cols), len(ins[1].cols)
	return rowPair{
		on: plan.On, jt: plan.JoinType, env: joinEnv(ins, out),
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
// datum is NULL (SQL equality never matches NULLs). The bytes match what the
// batch engine's key index produces: both are Datum.AppendKey sequences.
func keyOf(row datum.Row, slots []int) (string, bool) {
	var buf []byte
	for _, s := range slots {
		if row[s].IsNull() {
			return "", false
		}
		buf = row[s].AppendKey(buf)
	}
	return string(buf), true
}

// ---- hash join -------------------------------------------------------------

type hashJoinIter struct {
	rowPair
	left, right iterator

	leftSlots  []int
	rightSlots []int

	table map[string][]datum.Row

	leftRow datum.Row
	cands   []datum.Row
	midx    int
	matched bool

	done bool
}

func (h *hashJoinIter) Open() error {
	rows, err := drain(h.right)
	if err != nil {
		return err
	}
	h.table = make(map[string][]datum.Row)
	for _, row := range rows {
		if key, ok := keyOf(row, h.rightSlots); ok {
			h.table[key] = append(h.table[key], row)
		}
	}
	h.leftRow, h.cands, h.midx, h.matched, h.done = nil, nil, 0, false, false
	return h.left.Open()
}

func (h *hashJoinIter) Next() (datum.Row, error) {
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
		if key, ok := keyOf(lrow, h.leftSlots); ok {
			h.cands = h.table[key]
		} else {
			h.cands = nil
		}
	}
}

func (h *hashJoinIter) Close() error {
	h.table, h.leftRow, h.cands = nil, nil, nil
	err1 := h.left.Close()
	err2 := h.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// ---- nested loops join ---------------------------------------------------------

type nlJoinIter struct {
	rowPair
	left, right iterator

	rightRows []datum.Row

	leftRow datum.Row
	ridx    int
	matched bool
	done    bool
}

func (n *nlJoinIter) Open() error {
	rows, err := drain(n.right)
	if err != nil {
		return err
	}
	n.rightRows = rows
	n.leftRow, n.ridx, n.matched, n.done = nil, 0, false, false
	return n.left.Open()
}

func (n *nlJoinIter) Next() (datum.Row, error) {
	if n.done {
		return nil, nil
	}
	for {
		for n.leftRow != nil && n.ridx < len(n.rightRows) {
			rrow := n.rightRows[n.ridx]
			n.ridx++
			ok, err := n.matches(rrow)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			n.matched = true
			switch n.jt {
			case physical.JoinInner, physical.JoinLeft:
				return concatRows(n.leftRow, rrow), nil
			case physical.JoinSemi:
				n.ridx = len(n.rightRows)
				return n.leftRow, nil
			case physical.JoinAnti:
				n.ridx = len(n.rightRows)
			}
		}
		if n.leftRow != nil {
			lrow := n.leftRow
			n.leftRow = nil
			if !n.matched {
				switch n.jt {
				case physical.JoinLeft:
					return concatRows(lrow, nullRow(n.rightWidth)), nil
				case physical.JoinAnti:
					return lrow, nil
				}
			}
		}
		lrow, err := n.left.Next()
		if err != nil {
			return nil, err
		}
		if lrow == nil {
			n.done = true
			return nil, nil
		}
		n.leftRow = lrow
		n.setLeft(lrow)
		n.ridx = 0
		n.matched = false
	}
}

func (n *nlJoinIter) Close() error {
	n.rightRows, n.leftRow = nil, nil
	err1 := n.left.Close()
	err2 := n.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// ---- merge join (inner) ----------------------------------------------------------

type mergeJoinIter struct {
	rowPair
	left, right iterator

	leftSlots  []int
	rightSlots []int

	out []datum.Row
	pos int
}

// Open sorts both inputs on the equi-join keys and merges matching key
// groups, applying the full predicate to each candidate pair.
func (m *mergeJoinIter) Open() error {
	lslots, rslots := m.leftSlots, m.rightSlots
	lrows, err := drain(m.left)
	if err != nil {
		return err
	}
	rrows, err := drain(m.right)
	if err != nil {
		return err
	}
	byKey := func(rows []datum.Row, slots []int) {
		sort.SliceStable(rows, func(i, j int) bool {
			for _, s := range slots {
				c := datum.TotalCompare(rows[i][s], rows[j][s])
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
	}
	byKey(lrows, lslots)
	byKey(rrows, rslots)

	cmpKeys := func(l, r datum.Row) int {
		for i := range lslots {
			if c := datum.TotalCompare(l[lslots[i]], r[rslots[i]]); c != 0 {
				return c
			}
		}
		return 0
	}
	hasNullKey := func(row datum.Row, slots []int) bool {
		for _, s := range slots {
			if row[s].IsNull() {
				return true
			}
		}
		return false
	}

	m.out = m.out[:0]
	li, ri := 0, 0
	for li < len(lrows) && ri < len(rrows) {
		if hasNullKey(lrows[li], lslots) {
			li++
			continue
		}
		if hasNullKey(rrows[ri], rslots) {
			ri++
			continue
		}
		c := cmpKeys(lrows[li], rrows[ri])
		if c < 0 {
			li++
			continue
		}
		if c > 0 {
			ri++
			continue
		}
		// Key group: advance both ends and cross-product the group.
		le := li
		for le < len(lrows) && cmpKeys(lrows[le], rrows[ri]) == 0 {
			le++
		}
		re := ri
		for re < len(rrows) && cmpKeys(lrows[li], rrows[re]) == 0 {
			re++
		}
		for i := li; i < le; i++ {
			m.setLeft(lrows[i])
			for j := ri; j < re; j++ {
				ok, err := m.matches(rrows[j])
				if err != nil {
					return err
				}
				if ok {
					m.out = append(m.out, concatRows(lrows[i], rrows[j]))
				}
			}
		}
		li, ri = le, re
	}
	m.pos = 0
	return nil
}

func (m *mergeJoinIter) Next() (datum.Row, error) {
	if m.pos >= len(m.out) {
		return nil, nil
	}
	row := m.out[m.pos]
	m.pos++
	return row, nil
}

func (m *mergeJoinIter) Close() error {
	m.out = nil
	err1 := m.left.Close()
	err2 := m.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
