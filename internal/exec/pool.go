package exec

import (
	"sync"

	"qtrtest/internal/datum"
)

// Scratch recycling for the batch engine. A campaign executes thousands of
// short-lived plans, and every batch iterator used to allocate its column
// vectors and selection buffers fresh in Open; those allocations — not the
// per-row work — dominated scan- and join-heavy profiles. An operator now
// takes one scratch struct from a process-wide pool in Open and returns it in
// Close, so one execution's grown buffers serve the next plan. The pools hold
// pointers: one Get and one Put per operator, and no slice header is boxed on
// the way in — on the ≤ 3-row plans of a verify sweep that box was one
// allocation in sixteen.
//
// Safety rules:
//
//   - Reset on use, not trust on put. Buffers come back in whatever state the
//     previous owner left them; sizeVecs length-resets every vector it hands
//     out and selection buffers are always re-sliced to [:0] before the first
//     append, so stale datums or indices are unreachable.
//     TestPoolPoisonIsInvisible pins this by pre-poisoning the pools.
//   - Never pool aliased storage. A join's build vectors live in its scratch
//     only when the join filled them itself (the bare-scan fast path aliases
//     the catalog's cached column vectors through a field of its own).
//     Dense selections alias the shared read-only denseIota and are never
//     stored in a scratch; ownSel, at the put sites, drops one that is.

// opScratch is the reusable state of a single-input operator: a filter's
// selection, the output vectors of a project or an aggregate, an aggregate's
// argument vectors, groups and accumulators, a sort's drained input and
// permutation; cols, a project's output aliasing its input's, comes back cleared.
type opScratch struct {
	vecs, args []datum.Vec
	cols       []datum.Vec
	sel        []int
	keys       datum.KeyTable
	states     []aggState
}

// joinScratch is the reusable state of a batchJoin; the fields are documented
// where the join uses them.
type joinScratch struct {
	build, cand     []datum.Vec
	index           datum.KeyIndex
	scan            []int32
	candL, candR    []int
	sel, outL, outR []int
	segs            []joinSeg
	matched         []bool
}

var (
	opPool   = sync.Pool{New: func() interface{} { return new(opScratch) }}
	joinPool = sync.Pool{New: func() interface{} { return new(joinScratch) }}
)

func getOpScratch() *opScratch { return opPool.Get().(*opScratch) }

func putOpScratch(s *opScratch) {
	s.sel = ownSel(s.sel)
	clear(s.cols)
	opPool.Put(s)
}

func getJoinScratch() *joinScratch { return joinPool.Get().(*joinScratch) }

func putJoinScratch(s *joinScratch) {
	s.sel = ownSel(s.sel)
	joinPool.Put(s)
}

// sizeVecs returns v resized to width with every element length-reset;
// capacities carry over from previous owners.
func sizeVecs(v []datum.Vec, width int) []datum.Vec {
	if cap(v) < width {
		return make([]datum.Vec, width)
	}
	v = v[:width]
	for i := range v {
		v[i].Reset()
	}
	return v
}

// ownSel returns s unless it is carved from the shared read-only denseIota:
// handing that out as a scratch buffer would let an EvalPred append scribble
// over every operator's dense selections at once.
func ownSel(s []int) []int {
	if cap(s) > 0 && &s[:cap(s)][0] == &denseIota[0] {
		return nil
	}
	return s
}
