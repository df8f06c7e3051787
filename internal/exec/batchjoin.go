package exec

import (
	"qtrtest/internal/datum"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// batchHashJoin is the columnar hash join. The build side is materialized
// into column vectors behind an allocation-free key index (map hits cost no
// allocation; only distinct keys allocate); the probe side is processed in
// chunks of candidate (left, right) pairs whose join predicate is evaluated
// in one vectorized pass per chunk.
//
// Emission order is pinned to the row engine's: for each probe row in stream
// order, its passing matches in build-insertion order, then its outer/anti
// fallout. The differential golden tests rely on it.
type batchHashJoin struct {
	plan        *physical.Expr
	left, right BatchIterator

	jt         physical.JoinType
	leftWidth  int
	rightWidth int
	leftSlots  []int
	rightSlots []int
	equi       bool           // On is exactly the equi-key conjunction
	ve         scalar.VecEval // env over the combined (left ++ right) layout

	// build side. ownRight records that rightVecs is pool-backed scratch this
	// join filled itself; the bare-scan fast path instead aliases the
	// catalog's cached column vectors, which must never be recycled.
	rightVecs []datum.Vec
	ownRight  bool
	lookup    map[string]int32
	groups    [][]int32

	// probe cursor: position li in the current left batch; mi is the offset
	// into the current row's candidate group when the row's candidates span
	// chunks. rowMatched[k] records whether probe row k of the batch has
	// produced a passing match yet.
	lb         *Batch
	li         int
	inRow      bool
	mi         int
	group      []int32
	rowMatched []bool

	keyBuf []byte

	// per-chunk scratch
	keep     []int // non-NULL-key row indices of the current build batch
	candL    []int // left row index (into lb.Cols) per candidate
	candR    []int // build row index (into rightVecs) per candidate
	segs     []joinSeg
	candVecs []datum.Vec // gathered candidate pairs, combined layout
	sel      []int

	outVecs []datum.Vec // materialized output (left joins)
	outIdx  []int       // selected output (semi/anti joins)
	out     Batch
}

// joinSeg is one probe row's slice of a chunk's candidate pairs.
type joinSeg struct {
	li         int  // position in lb.Idx
	start, end int  // candidate range
	final      bool // chunk holds the row's last candidates
}

func newBatchHashJoin(plan *physical.Expr, left, right BatchIterator) *batchHashJoin {
	return &batchHashJoin{
		plan: plan, left: left, right: right,
		jt: plan.JoinType, equi: equiOnly(plan),
	}
}

// equiOnly reports whether the join predicate is exactly the conjunction of
// the equi-key equalities. The hash index only ever yields non-NULL key-equal
// candidates, and the key encoding is injective with respect to
// datum.Compare equality (numeric kinds fold through the same float64 image
// both sides use), so for such predicates every candidate passes by
// construction and the per-candidate predicate pass can be skipped.
func equiOnly(plan *physical.Expr) bool {
	conj := []scalar.Expr{plan.On}
	if and, ok := plan.On.(*scalar.And); ok {
		conj = and.Kids
	}
	if len(conj) != len(plan.EquiLeft) {
		return false
	}
	used := make([]bool, len(plan.EquiLeft))
	for _, e := range conj {
		cmp, ok := e.(*scalar.Cmp)
		if !ok || cmp.Op != scalar.CmpEQ {
			return false
		}
		l, lok := cmp.L.(*scalar.ColRef)
		r, rok := cmp.R.(*scalar.ColRef)
		if !lok || !rok {
			return false
		}
		found := false
		for i := range plan.EquiLeft {
			if used[i] {
				continue
			}
			if (plan.EquiLeft[i] == l.ID && plan.EquiRight[i] == r.ID) ||
				(plan.EquiLeft[i] == r.ID && plan.EquiRight[i] == l.ID) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (h *batchHashJoin) Open() error {
	lcols := h.plan.Children[0].OutputCols()
	rcols := h.plan.Children[1].OutputCols()
	h.leftWidth, h.rightWidth = len(lcols), len(rcols)
	h.ve.Env = combinedEnv(h.plan)
	var err error
	if h.leftSlots, err = keySlots(envOf(lcols), h.plan.EquiLeft, "hash", "left"); err != nil {
		return err
	}
	if h.rightSlots, err = keySlots(envOf(rcols), h.plan.EquiRight, "hash", "right"); err != nil {
		return err
	}
	if err := h.buildSide(); err != nil {
		return err
	}
	if h.candVecs == nil {
		h.candVecs = getVecs(h.leftWidth + h.rightWidth)
		h.outVecs = getVecs(h.leftWidth + h.rightWidth)
	}
	h.candL, h.candR, h.outIdx = getSel(), getSel(), getSel()
	if !h.equi {
		// Equi-only joins alias denseIota for sel and never write through it;
		// only the EvalPred path wants a reusable buffer.
		h.sel = getSel()
	}
	h.lb, h.li, h.inRow = nil, 0, false
	return h.left.Open()
}

// scanOf unwraps a batch subtree down to a bare table scan, looking through
// the scan's tap; nil when the subtree is anything else.
func scanOf(it BatchIterator) (*batchScan, *batchTap) {
	if t, ok := it.(*batchTap); ok {
		if bs, ok := t.BatchIterator.(*batchScan); ok {
			return bs, t
		}
		return nil, nil
	}
	bs, _ := it.(*batchScan)
	return bs, nil
}

// buildSide drains the right child into column vectors, indexing non-NULL
// keys. Rows with a NULL key can never match and are not stored.
//
// When the build child is a bare table scan, the catalog's cached column
// vectors are indexed in place: they are stable storage, so copying them
// per execution would be pure overhead. The group index then holds table row
// positions and skipped NULL-key rows simply have no group entry.
func (h *batchHashJoin) buildSide() error {
	if err := h.right.Open(); err != nil {
		return err
	}
	if bs, tap := scanOf(h.right); bs != nil {
		h.rightVecs, h.ownRight = bs.cols, false
		idx := bs.table.JoinIndex(h.rightSlots)
		h.lookup, h.groups = idx.Lookup, idx.Groups
		if tap != nil {
			// Report what the scan would have emitted batch by batch; only
			// the per-operator total matters to the budget and to ANALYZE.
			if err := tap.emit(len(bs.idx)); err != nil {
				return err
			}
		}
		bs.pos = len(bs.idx) // the scan is consumed
		return nil
	}
	h.rightVecs, h.ownRight = getVecs(h.rightWidth), true
	h.lookup = make(map[string]int32)
	h.groups = nil // never reuse: the fast path above aliases a shared index
	h.keep = getSel()
	stored := int32(0)
	for {
		b, err := h.right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		h.keep = h.keep[:0]
	rows:
		for _, ri := range b.Idx {
			h.keyBuf = h.keyBuf[:0]
			for _, s := range h.rightSlots {
				d := b.Cols[s].D[ri]
				if d.IsNull() {
					continue rows
				}
				h.keyBuf = d.AppendKey(h.keyBuf)
			}
			slot, ok := h.lookup[string(h.keyBuf)]
			if !ok {
				slot = int32(len(h.groups))
				h.lookup[string(h.keyBuf)] = slot
				h.groups = append(h.groups, nil)
			}
			h.keep = append(h.keep, ri)
			h.groups[slot] = append(h.groups[slot], stored)
			stored++
		}
		for c := 0; c < h.rightWidth; c++ {
			h.rightVecs[c].AppendGather(b.Cols[c].D, h.keep)
		}
	}
}

func (h *batchHashJoin) Next() (*Batch, error) {
	for {
		if h.lb == nil {
			lb, err := h.left.Next()
			if err != nil {
				return nil, err
			}
			if lb == nil {
				return nil, nil
			}
			h.lb, h.li, h.inRow = lb, 0, false
			if cap(h.rowMatched) < lb.Len() {
				h.rowMatched = getBools(lb.Len())
			}
			h.rowMatched = h.rowMatched[:lb.Len()]
			for k := range h.rowMatched {
				h.rowMatched[k] = false
			}
		}
		var b *Batch
		var err error
		if h.equi && (h.jt == physical.JoinSemi || h.jt == physical.JoinAnti) {
			b = h.semiAntiEqui()
		} else {
			b, err = h.processChunk()
			if err != nil {
				return nil, err
			}
		}
		if h.li >= len(h.lb.Idx) && !h.inRow {
			h.lb = nil
		}
		if b != nil && b.Len() > 0 {
			return b, nil
		}
	}
}

// semiAntiEqui handles semi and anti joins whose predicate is exactly the
// equi-key conjunction: a probe row passes iff its candidate group is
// (non-)empty, so the whole batch resolves with one hash lookup per row and
// no candidate pairs are ever gathered.
func (h *batchHashJoin) semiAntiEqui() *Batch {
	h.outIdx = h.outIdx[:0]
	for ; h.li < len(h.lb.Idx); h.li++ {
		h.resolveRow()
		if (len(h.group) > 0) == (h.jt == physical.JoinSemi) {
			h.outIdx = append(h.outIdx, h.lb.Idx[h.li])
		}
	}
	h.inRow = false
	h.out = Batch{Cols: h.lb.Cols, Idx: h.outIdx}
	return &h.out
}

// resolveRow looks up the candidate group for the probe row at position li.
func (h *batchHashJoin) resolveRow() {
	ri := h.lb.Idx[h.li]
	h.group, h.mi, h.inRow = nil, 0, true
	h.keyBuf = h.keyBuf[:0]
	for _, s := range h.leftSlots {
		d := h.lb.Cols[s].D[ri]
		if d.IsNull() {
			return
		}
		h.keyBuf = d.AppendKey(h.keyBuf)
	}
	if slot, ok := h.lookup[string(h.keyBuf)]; ok {
		h.group = h.groups[slot]
	}
}

// processChunk gathers up to candidateCap candidate pairs starting at the
// probe cursor, evaluates the join predicate once over all of them, and
// emits the chunk's output in row-engine order.
func (h *batchHashJoin) processChunk() (*Batch, error) {
	h.candL = h.candL[:0]
	h.candR = h.candR[:0]
	h.segs = h.segs[:0]
	n := 0
	for h.li < len(h.lb.Idx) && n < candidateCap {
		if !h.inRow {
			h.resolveRow()
		}
		if h.rowMatched[h.li] && (h.jt == physical.JoinSemi || h.jt == physical.JoinAnti) {
			// Decision already made in an earlier chunk; the row engine stops
			// probing such a row too (it nils the match list).
			h.mi = len(h.group)
		}
		start := n
		ri := h.lb.Idx[h.li]
		for h.mi < len(h.group) && n < candidateCap {
			h.candL = append(h.candL, ri)
			h.candR = append(h.candR, int(h.group[h.mi]))
			h.mi++
			n++
		}
		final := h.mi >= len(h.group)
		h.segs = append(h.segs, joinSeg{li: h.li, start: start, end: n, final: final})
		if !final {
			break // chunk full mid-row; resume this row next call
		}
		h.li++
		h.inRow = false
	}
	if err := h.evalChunk(); err != nil {
		return nil, err
	}
	return h.emitChunk(), nil
}

// evalChunk gathers the candidate pairs into combined column vectors and
// runs one vectorized predicate pass, leaving the passing candidate
// positions in h.sel. For an equi-only predicate the pass is skipped: every
// hash candidate matches by construction.
func (h *batchHashJoin) evalChunk() error {
	h.sel = h.sel[:0]
	if len(h.candL) == 0 {
		return nil
	}
	for c := range h.candVecs {
		h.candVecs[c].Reset()
	}
	for c := 0; c < h.leftWidth; c++ {
		h.candVecs[c].AppendGather(h.lb.Cols[c].D, h.candL)
	}
	for c := 0; c < h.rightWidth; c++ {
		h.candVecs[h.leftWidth+c].AppendGather(h.rightVecs[c].D, h.candR)
	}
	if h.equi {
		// Aliasing the shared read-only iota is safe: an equi-only join never
		// takes the EvalPred branch below, which is the only writer into sel.
		h.sel = iotaSel(len(h.candL))
		return nil
	}
	sel, err := h.ve.EvalPred(h.plan.On, h.candVecs, iotaSel(len(h.candL)), h.sel)
	if err != nil {
		return err
	}
	h.sel = sel
	return nil
}

// emitChunk walks the chunk's segments in probe order and assembles the
// output batch: each row's passing matches, then its fallout once its
// candidates are exhausted.
func (h *batchHashJoin) emitChunk() *Batch {
	sel := h.sel
	switch h.jt {
	case physical.JoinInner:
		// Pure selection over the candidate vectors: zero copies.
		h.out = Batch{Cols: h.candVecs, Idx: sel}
		return &h.out
	case physical.JoinSemi, physical.JoinAnti:
		h.outIdx = h.outIdx[:0]
		si := 0
		for _, seg := range h.segs {
			for si < len(sel) && sel[si] < seg.start {
				si++
			}
			if si < len(sel) && sel[si] < seg.end && !h.rowMatched[seg.li] {
				h.rowMatched[seg.li] = true
				if h.jt == physical.JoinSemi {
					h.outIdx = append(h.outIdx, h.lb.Idx[seg.li])
				}
			}
			if seg.final && h.jt == physical.JoinAnti && !h.rowMatched[seg.li] {
				h.outIdx = append(h.outIdx, h.lb.Idx[seg.li])
			}
		}
		h.out = Batch{Cols: h.lb.Cols, Idx: h.outIdx}
		return &h.out
	default: // JoinLeft
		for c := range h.outVecs {
			h.outVecs[c].Reset()
		}
		m := 0
		si := 0
		for _, seg := range h.segs {
			for si < len(sel) && sel[si] < seg.start {
				si++
			}
			for si < len(sel) && sel[si] < seg.end {
				p := sel[si]
				si++
				for c := range h.outVecs {
					h.outVecs[c].Append(h.candVecs[c].D[p])
				}
				m++
				h.rowMatched[seg.li] = true
			}
			if seg.final && !h.rowMatched[seg.li] {
				ri := h.lb.Idx[seg.li]
				for c := 0; c < h.leftWidth; c++ {
					h.outVecs[c].Append(h.lb.Cols[c].D[ri])
				}
				for c := h.leftWidth; c < len(h.outVecs); c++ {
					h.outVecs[c].Append(datum.Null)
				}
				m++
			}
		}
		h.out = Batch{Cols: h.outVecs, Idx: iotaSel(m)}
		return &h.out
	}
}

func (h *batchHashJoin) Close() error {
	putVecs(h.candVecs)
	putVecs(h.outVecs)
	if h.ownRight {
		putVecs(h.rightVecs)
	}
	h.candVecs, h.outVecs, h.rightVecs, h.ownRight = nil, nil, nil, false
	putSel(h.keep)
	putSel(h.candL)
	putSel(h.candR)
	putSel(h.outIdx)
	putSel(h.sel) // drops the denseIota alias an equi join leaves here
	h.keep, h.candL, h.candR, h.outIdx, h.sel = nil, nil, nil, nil, nil
	putBools(h.rowMatched)
	h.rowMatched = nil
	err1 := h.left.Close()
	err2 := h.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
