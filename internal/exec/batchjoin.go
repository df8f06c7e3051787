package exec

import (
	"qtrtest/internal/datum"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// batchJoin is the columnar join, hash, merge and nested loops alike. The
// build side is held in column vectors; the probe side is processed in chunks
// of candidate (left, right) pairs whose join predicate is evaluated in one
// vectorized pass per chunk. A probe row's candidates depend on the
// predicate and the build side, not the operator: a join with a key — a hash
// or merge join's equi-key, or the probe = build column equalities of a
// nested-loops join whose On cannot fail — looks them up in an exact key
// index over the build side (datum.KeyIndex); other joins, and nested loops
// over fewer than keyedNLMinBuild rows, take the whole build side. A merge
// join is the hash join over a batchSort of its probe side on the keys.
//
// Materialization is late and narrow: the predicate reads its columns in
// place, through the candidate pairs, and a chunk gathers the columns read
// above the join for the surviving pairs only; semi and anti joins emit a
// selection over the probe batch and gather nothing. A drained build side
// holds only the columns the join reads or emits.
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
	outLive    []int          // the output slots read above the join
	buildLive  []int          // the build slots the join reads or emits
	keyed      bool           // the join has a key: candidates can come from a key index
	minBuild   int            // keyed: the fewest build rows worth indexing
	leftSlots  []int          // keyed: key slots in the probe input
	rightSlots []int          // keyed: key slots in the build input
	equi       bool           // keyed, and On is exactly the key's equalities
	ve         scalar.VecEval // reads candidate pairs in place, through pairs

	joinRun
}

// keyedNLMinBuild is the build size from which a keyed nested-loops join
// indexes its build side: below it, as on every verify database, comparing
// all pairs costs less than an index per run.
const keyedNLMinBuild = 64

// joinRun is the state of one execution of a batchJoin. Everything above it
// in the operator is a function of the plan; everything in it is taken in
// Open or derived from the run's database, and Close zeroes it.
type joinRun struct {
	s *joinScratch

	// build side: s.build filled by this join, or — over a bare table scan —
	// the catalog's cached column vectors, which must never enter a pool.
	rightVecs []datum.Vec
	buildRows int
	// index finds a probe row's candidates: s.index or the catalog's
	// Table.JoinIndex. Nil: every probe row's candidates are 0..buildRows-1.
	index *datum.KeyIndex

	// probe cursor: position li in the current left batch; mi is the offset
	// into the current row's candidate group when the row's candidates span
	// chunks. s.matched[k] records whether probe row k of the batch has
	// produced a passing match yet.
	lb       *Batch
	li       int
	inRow    bool
	mi       int
	group    []int32 // index: the current row's candidates; nil without one
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

func (c *compiler) newBatchJoin(plan *physical.Expr, kids []BatchIterator, ins []*layout, joined *layout, need, read *liveCols) (*batchJoin, error) {
	j := &batchJoin{
		on: plan.On, left: kids[0], right: kids[1],
		jt:        plan.JoinType,
		leftWidth: len(ins[0].cols), rightWidth: len(ins[1].cols),
		outLive:   c.liveSlots(joined, need),
		buildLive: c.liveSlots(ins[1], read),
		ve:        scalar.VecEval{Env: joined.env()},
	}
	eqLeft, eqRight, whole := keyConjuncts(plan.On, j.ve.Env, j.leftWidth)
	if plan.Op == physical.OpNLJoin {
		// A key drops the pairs that fail it unevaluated, which only an On
		// that cannot fail allows: an error must surface as it does over all
		// pairs.
		if len(eqLeft) > 0 && scalar.ErrFreePred(plan.On, j.ve.Env) {
			j.keyed, j.minBuild = true, keyedNLMinBuild
			j.leftSlots, j.rightSlots, j.equi = eqLeft, eqRight, whole
		}
	} else {
		var err error
		if j.leftSlots, j.rightSlots, err = joinKeys(plan, ins); err != nil {
			return nil, err
		}
		j.keyed = true
		j.equi = whole && impliedByKey(eqLeft, eqRight, j.leftSlots, j.rightSlots)
		if plan.Op == physical.OpMergeJoin {
			j.left = &batchSort{child: j.left, keys: ascending(j.leftSlots), live: c.liveSlots(ins[0], read)}
		}
	}
	j.ve.Pairs = &j.pairs
	return j, nil
}

// keyConjuncts scans the conjuncts of a join predicate for equalities between
// a probe column and a build column, returning their slots in the probe and
// build inputs, and whether such equalities are all of the predicate. env is
// the slot map of the combined (probe ++ build) row, the probe's split slots
// wide.
func keyConjuncts(on scalar.Expr, env scalar.Env, split int) (left, right []int, whole bool) {
	conj := []scalar.Expr{on}
	if and, ok := on.(*scalar.And); ok {
		conj = and.Kids
	}
	whole = true
	for _, e := range conj {
		l, r := -1, -1
		if cmp, ok := e.(*scalar.Cmp); ok && cmp.Op == scalar.CmpEQ {
			l, r = slotOf(cmp.L, env), slotOf(cmp.R, env)
		}
		if l > r {
			l, r = r, l
		}
		if l < 0 || l >= split || r < split {
			whole = false
			continue
		}
		left, right = append(left, l), append(right, r-split)
	}
	return left, right, whole
}

// slotOf is the slot of a column reference in env; -1 for anything else.
func slotOf(e scalar.Expr, env scalar.Env) int {
	if c, ok := e.(*scalar.ColRef); ok {
		if s, ok := env[c.ID]; ok {
			return s
		}
	}
	return -1
}

// impliedByKey reports whether every equality (left[i], right[i]) is one of
// the key's pairs, so that a key match satisfies all of them.
func impliedByKey(left, right, keyLeft, keyRight []int) bool {
next:
	for i := range left {
		for k := range keyLeft {
			if keyLeft[k] == left[i] && keyRight[k] == right[i] {
				continue next
			}
		}
		return false
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

// buildSide drains the right child into column vectors and, for a keyed
// join with enough build rows, indexes their keys.
//
// When the build child is a bare table scan, the catalog's cached column
// vectors are used in place, and its cached Table.JoinIndex: they are stable
// storage, so copying or indexing them per execution would be pure overhead.
func (h *batchJoin) buildSide() error {
	if err := h.right.Open(); err != nil {
		return err
	}
	if bs, tap := scanOf(h.right); bs != nil {
		h.rightVecs, h.buildRows = bs.cols, len(bs.idx)
		if h.keyed && h.buildRows >= h.minBuild {
			h.index = bs.table.JoinIndex(h.rightSlots)
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
	for {
		b, err := h.right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, c := range h.buildLive {
			s.build[c].AppendGather(b.Cols[c].D, b.Idx)
		}
		h.buildRows += b.Len()
	}
	if h.keyed && h.buildRows >= h.minBuild {
		s.index.Build(s.build, h.rightSlots, h.buildRows)
		h.index = &s.index
	}
	return nil
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
		if h.keyOnly() && (h.jt == physical.JoinSemi || h.jt == physical.JoinAnti) {
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

// keyOnly reports that every candidate passes: it is a key match, and On is
// exactly the key's equalities.
func (h *batchJoin) keyOnly() bool { return h.index != nil && h.equi }

// semiAntiEqui handles semi and anti joins whose predicate is exactly the
// key: a probe row passes iff its candidate group is (non-)empty, so the
// whole batch resolves with one index lookup per row and no candidate pairs
// are ever gathered.
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

// resolveRow finds the candidate group of the probe row at position li: its
// key's rows in the index, or the whole build side without one.
//
// NaN is exact: Compare calls it equal to every number, which no key index
// can file, so a probe row with a NaN key part — and every probe row when
// the build side has one — scans for its candidates instead.
func (h *batchJoin) resolveRow() {
	h.group, h.groupLen, h.mi, h.inRow = nil, 0, 0, true
	if h.index == nil {
		h.groupLen = h.buildRows
		return
	}
	ri := h.lb.Idx[h.li]
	switch null, nan := datum.KeyFlags(h.lb.Cols, h.leftSlots, ri); {
	case null:
	case nan || h.index.NaN:
		h.group = h.scanGroup(ri)
	default:
		h.group = h.index.Lookup(h.lb.Cols, h.leftSlots, ri)
	}
	h.groupLen = len(h.group)
}

// scanGroup returns the build rows whose key parts all Compare-equal those of
// probe row ri, in build order.
func (h *batchJoin) scanGroup(ri int) []int32 {
	g := h.s.scan[:0]
rows:
	for r := 0; r < h.buildRows; r++ {
		for i, ls := range h.leftSlots {
			if c, ok := datum.ComparePtr(&h.lb.Cols[ls].D[ri], &h.rightVecs[h.rightSlots[i]].D[r]); !ok || c != 0 {
				continue rows
			}
		}
		g = append(g, int32(r))
	}
	h.s.scan = g
	return g
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
		if h.index != nil {
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
// returns the passing candidate positions. When On is exactly the key the
// pass is skipped: every candidate is a key match and passes by construction.
func (h *batchJoin) evalChunk() ([]int, error) {
	s := h.s
	n := len(s.candL)
	if h.keyOnly() || n == 0 {
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

// gather materializes the live columns of output rows (probe row outL[k] ++
// build row outR[k]), a negative build row standing for NULL padding.
func (h *batchJoin) gather(outL, outR []int) *Batch {
	vecs := h.s.cand
	for _, c := range h.outLive {
		v := &vecs[c]
		v.Reset()
		if c < h.leftWidth {
			v.AppendGather(h.lb.Cols[c].D, outL)
			continue
		}
		src := h.rightVecs[c-h.leftWidth].D
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
