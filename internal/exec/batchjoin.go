package exec

import (
	"qtrtest/internal/datum"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// batchJoin is the columnar join, hash, merge and nested loops alike. The
// build side is held in column vectors; the probe side is processed in chunks
// of candidate (left, right) pairs whose join predicate is evaluated in one
// vectorized pass per chunk. The operators differ in one step only — how a
// probe row finds its candidate group: a hash join looks its key up in an
// allocation-free index over the build side (map hits cost no allocation;
// only distinct keys allocate), a nested-loops join's group is the whole
// build side. A merge join is the hash join over a batchSort of its probe
// side on the keys (joinKeys).
//
// Materialization is late: the predicate reads its columns in place, through
// the candidate pairs, and a chunk gathers the output columns for the
// surviving pairs only; semi and anti joins emit a selection over the probe
// batch and gather no output at all.
//
// Emission order is pinned to the row engine's: for each probe row in stream
// order, its passing matches in build order, then its outer/anti fallout. The
// differential golden tests rely on it.
type batchJoin struct {
	on          scalar.Expr
	left, right BatchIterator

	jt         physical.JoinType
	leftWidth  int
	rightWidth int
	hash       bool           // candidates come from the key index, not the whole build side
	leftSlots  []int          // hash: key slots in the probe input
	rightSlots []int          // hash: key slots in the build input
	equi       bool           // hash, and On is exactly the equi-key conjunction
	ve         scalar.VecEval // reads candidate pairs in place, through pairs

	joinRun
}

// joinRun is the state of one execution of a batchJoin. Everything above it
// in the operator is a function of the plan; everything in it is taken in
// Open or derived from the run's database, and Close zeroes it.
type joinRun struct {
	s *joinScratch

	// build side: s.build filled by this join, or — over a bare table scan —
	// the catalog's cached column vectors, which must never enter a pool.
	rightVecs []datum.Vec
	buildRows int // nested loops: every probe row's candidates are 0..buildRows-1
	lookup    map[string]int32
	groups    [][]int32

	// probe cursor: position li in the current left batch; mi is the offset
	// into the current row's candidate group when the row's candidates span
	// chunks. s.matched[k] records whether probe row k of the batch has
	// produced a passing match yet.
	lb       *Batch
	li       int
	inRow    bool
	mi       int
	group    []int32 // hash: the current row's candidates; nil under nested loops
	groupLen int

	// pairs is the current chunk's candidate pairs as the predicate sees
	// them: probe columns at candL, build columns at candR.
	pairs scalar.PairView

	out Batch
}

// joinSeg is one probe row's slice of a chunk's candidate pairs.
type joinSeg struct {
	li         int  // position in lb.Idx
	start, end int  // candidate range
	final      bool // chunk holds the row's last candidates
}

func newBatchJoin(plan *physical.Expr, kids []BatchIterator, ins []*layout, out *layout) (*batchJoin, error) {
	j := &batchJoin{
		on: plan.On, left: kids[0], right: kids[1],
		jt: plan.JoinType, hash: plan.Op != physical.OpNLJoin,
		leftWidth: len(ins[0].cols), rightWidth: len(ins[1].cols),
		ve: scalar.VecEval{Env: joinEnv(ins, out)},
	}
	if j.hash {
		var err error
		if j.leftSlots, j.rightSlots, err = joinKeys(plan, ins); err != nil {
			return nil, err
		}
		j.equi = equiOnly(plan)
		if plan.Op == physical.OpMergeJoin {
			j.left = &batchSort{child: j.left, keys: ascending(j.leftSlots), width: j.leftWidth}
		}
	}
	j.ve.Pairs = &j.pairs
	return j, nil
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

func (h *batchJoin) Open() error {
	if h.s == nil {
		h.s = getJoinScratch()
	}
	if err := h.buildSide(); err != nil {
		return err
	}
	if h.jt == physical.JoinInner || h.jt == physical.JoinLeft {
		// Semi and anti joins select over the probe batch and gather nothing.
		h.s.cand = sizeVecs(h.s.cand, h.leftWidth+h.rightWidth)
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

// buildSide drains the right child into column vectors; a hash join also
// indexes the rows' keys, and does not store rows with a NULL key, which can
// never match.
//
// When the build child is a bare table scan, the catalog's cached column
// vectors are used in place: they are stable storage, so copying them per
// execution would be pure overhead. A hash join's group index then holds
// table row positions and skipped NULL-key rows simply have no group entry.
func (h *batchJoin) buildSide() error {
	if err := h.right.Open(); err != nil {
		return err
	}
	if bs, tap := scanOf(h.right); bs != nil {
		h.rightVecs, h.buildRows = bs.cols, len(bs.idx)
		if h.hash {
			idx := bs.table.JoinIndex(h.rightSlots)
			h.lookup, h.groups = idx.Lookup, idx.Groups
		}
		if tap != nil {
			// Report what the scan would have emitted batch by batch; only
			// the per-operator total matters to the budget and to ANALYZE.
			if err := tap.st.emit(tap.op, len(bs.idx)); err != nil {
				return err
			}
		}
		bs.pos = len(bs.idx) // the scan is consumed
		return nil
	}
	s := h.s
	s.build = sizeVecs(s.build, h.rightWidth)
	h.rightVecs, h.buildRows = s.build, 0
	if h.hash {
		h.lookup = make(map[string]int32)
		h.groups = nil // never reuse: the fast path above aliases a shared index
	}
	for {
		b, err := h.right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		keep := b.Idx
		if h.hash {
			keep = h.indexKeys(b)
		}
		for c := range s.build {
			s.build[c].AppendGather(b.Cols[c].D, keep)
		}
		h.buildRows += len(keep)
	}
}

// indexKeys adds a build batch's rows to the key index and returns the rows
// to store: those without a NULL key.
func (h *batchJoin) indexKeys(b *Batch) []int {
	s := h.s
	s.keep = s.keep[:0]
	stored := int32(h.buildRows)
rows:
	for _, ri := range b.Idx {
		s.keyBuf = s.keyBuf[:0]
		for _, slot := range h.rightSlots {
			d := b.Cols[slot].D[ri]
			if d.IsNull() {
				continue rows
			}
			s.keyBuf = d.AppendKey(s.keyBuf)
		}
		slot, ok := h.lookup[string(s.keyBuf)]
		if !ok {
			slot = int32(len(h.groups))
			h.lookup[string(s.keyBuf)] = slot
			h.groups = append(h.groups, nil)
		}
		s.keep = append(s.keep, ri)
		h.groups[slot] = append(h.groups[slot], stored)
		stored++
	}
	return s.keep
}

func (h *batchJoin) Next() (*Batch, error) {
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
			if cap(h.s.matched) < lb.Len() {
				h.s.matched = make([]bool, lb.Len())
			}
			h.s.matched = h.s.matched[:lb.Len()]
			for k := range h.s.matched {
				h.s.matched[k] = false
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
func (h *batchJoin) semiAntiEqui() *Batch {
	outIdx := h.s.outL[:0]
	for ; h.li < len(h.lb.Idx); h.li++ {
		h.resolveRow()
		if (h.groupLen > 0) == (h.jt == physical.JoinSemi) {
			outIdx = append(outIdx, h.lb.Idx[h.li])
		}
	}
	h.inRow = false
	h.s.outL = outIdx
	h.out = Batch{Cols: h.lb.Cols, Idx: outIdx}
	return &h.out
}

// resolveRow finds the candidate group of the probe row at position li: the
// key index's entry under a hash join, the whole build side under nested
// loops.
func (h *batchJoin) resolveRow() {
	h.group, h.groupLen, h.mi, h.inRow = nil, 0, 0, true
	if !h.hash {
		h.groupLen = h.buildRows
		return
	}
	ri := h.lb.Idx[h.li]
	s := h.s
	s.keyBuf = s.keyBuf[:0]
	for _, slot := range h.leftSlots {
		d := h.lb.Cols[slot].D[ri]
		if d.IsNull() {
			return
		}
		s.keyBuf = d.AppendKey(s.keyBuf)
	}
	if slot, ok := h.lookup[string(s.keyBuf)]; ok {
		h.group = h.groups[slot]
		h.groupLen = len(h.group)
	}
}

// processChunk gathers up to candidateCap candidate pairs starting at the
// probe cursor, evaluates the join predicate once over all of them, and
// emits the chunk's output in row-engine order.
func (h *batchJoin) processChunk() (*Batch, error) {
	s := h.s
	candL, candR, segs := s.candL[:0], s.candR[:0], s.segs[:0]
	semiAnti := h.jt == physical.JoinSemi || h.jt == physical.JoinAnti
	for h.li < len(h.lb.Idx) && len(candL) < candidateCap {
		if !h.inRow {
			h.resolveRow()
		}
		if semiAnti && s.matched[h.li] {
			// Decision already made in an earlier chunk; the row engine stops
			// probing such a row too.
			h.mi = h.groupLen
		}
		start := len(candL)
		take := h.groupLen - h.mi
		if room := candidateCap - start; take > room {
			take = room
		}
		ri := h.lb.Idx[h.li]
		for k := h.mi; k < h.mi+take; k++ {
			candL = append(candL, ri)
		}
		if h.hash {
			for _, r := range h.group[h.mi : h.mi+take] {
				candR = append(candR, int(r))
			}
		} else {
			for r := h.mi; r < h.mi+take; r++ {
				candR = append(candR, r)
			}
		}
		h.mi += take
		final := h.mi >= h.groupLen
		segs = append(segs, joinSeg{li: h.li, start: start, end: len(candL), final: final})
		if !final {
			break // chunk full mid-row; resume this row next call
		}
		h.li++
		h.inRow = false
	}
	s.candL, s.candR, s.segs = candL, candR, segs
	sel, err := h.evalChunk()
	if err != nil {
		return nil, err
	}
	return h.emitChunk(sel), nil
}

// evalChunk runs one vectorized predicate pass over the chunk's candidate
// pairs, read where they lie in the probe batch and the build side, and
// returns the passing candidate positions. For an equi-only predicate the
// pass is skipped: every hash candidate matches by construction.
func (h *batchJoin) evalChunk() ([]int, error) {
	s := h.s
	n := len(s.candL)
	if h.equi || n == 0 {
		// The shared read-only iota: nothing below this point writes through
		// the selection it is handed.
		return iotaSel(n), nil
	}
	h.pairs = scalar.PairView{Split: h.leftWidth, Right: h.rightVecs, L: s.candL, R: s.candR}
	sel, err := h.ve.EvalPred(h.on, h.lb.Cols, iotaSel(n), s.sel)
	if err != nil {
		return nil, err
	}
	s.sel = sel
	return sel, nil
}

// emitChunk walks the chunk's segments in probe order and assembles the
// output batch from the passing candidate positions: each row's passing
// matches, then its fallout once its candidates are exhausted.
func (h *batchJoin) emitChunk(sel []int) *Batch {
	s := h.s
	switch h.jt {
	case physical.JoinInner:
		outL, outR := s.candL, s.candR
		if len(sel) < len(outL) {
			// Compact the survivors in place; positions only move down.
			for k, p := range sel {
				outL[k], outR[k] = outL[p], outR[p]
			}
			outL, outR = outL[:len(sel)], outR[:len(sel)]
		}
		return h.gather(outL, outR)
	case physical.JoinSemi, physical.JoinAnti:
		outIdx := s.outL[:0]
		si := 0
		for _, seg := range s.segs {
			for si < len(sel) && sel[si] < seg.start {
				si++
			}
			if si < len(sel) && sel[si] < seg.end && !s.matched[seg.li] {
				s.matched[seg.li] = true
				if h.jt == physical.JoinSemi {
					outIdx = append(outIdx, h.lb.Idx[seg.li])
				}
			}
			if seg.final && h.jt == physical.JoinAnti && !s.matched[seg.li] {
				outIdx = append(outIdx, h.lb.Idx[seg.li])
			}
		}
		s.outL = outIdx
		h.out = Batch{Cols: h.lb.Cols, Idx: outIdx}
		return &h.out
	default: // JoinLeft
		outL, outR := s.outL[:0], s.outR[:0]
		si := 0
		for _, seg := range s.segs {
			for si < len(sel) && sel[si] < seg.start {
				si++
			}
			for ; si < len(sel) && sel[si] < seg.end; si++ {
				outL = append(outL, s.candL[sel[si]])
				outR = append(outR, s.candR[sel[si]])
				s.matched[seg.li] = true
			}
			if seg.final && !s.matched[seg.li] {
				outL = append(outL, h.lb.Idx[seg.li])
				outR = append(outR, -1) // NULL-padded
			}
		}
		s.outL, s.outR = outL, outR
		return h.gather(outL, outR)
	}
}

// gather materializes output rows (probe row outL[k] ++ build row outR[k]),
// a negative build row standing for a left join's NULL padding.
func (h *batchJoin) gather(outL, outR []int) *Batch {
	vecs := h.s.cand
	for c := 0; c < h.leftWidth; c++ {
		vecs[c].Reset()
		vecs[c].AppendGather(h.lb.Cols[c].D, outL)
	}
	for c := 0; c < h.rightWidth; c++ {
		v, src := &vecs[h.leftWidth+c], h.rightVecs[c].D
		v.Reset()
		if h.jt != physical.JoinLeft {
			v.AppendGather(src, outR)
			continue
		}
		for _, r := range outR {
			if r < 0 {
				v.Append(datum.Null)
			} else {
				v.Append(src[r])
			}
		}
	}
	h.out = Batch{Cols: vecs, Idx: iotaSel(len(outL))}
	return &h.out
}

func (h *batchJoin) Close() error {
	if h.s != nil {
		putJoinScratch(h.s)
	}
	h.joinRun = joinRun{}
	err1 := h.left.Close()
	err2 := h.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
