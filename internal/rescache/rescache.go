// Package rescache is a single-flight execution-result cache. Campaigns
// execute the same physical plan against the same database over and over —
// Plan(q) vs Plan(q,¬R) when rule R never fires, shrinker replays that differ
// by one reduction, metamorphic rewrites sharing subplans, and qtrtest
// verify's bounded pairs over a tiny database pool. The cache keys executions
// by (plan fingerprint, catalog identity/version, row cap, work budget,
// engine) and memoizes the materialized result — including the error
// outcome, since execution is deterministic given the key — so every
// recurrence after the first is a hit. The reference-engine cross-check is a
// plan execution like the others (the query's lowered tree, run on
// exec.EngineRef), so one key shape covers every execution.
//
// Everything sits under one mutex. Two dense 32-bit ids name a key: one
// numbers the plan text, the other the run context (engine, catalog identity
// and version, caps). A campaign has far fewer distinct plans and contexts
// than executions — a verify sweep makes 32 048 entries from 974 plans and
// 250 contexts — so the two id maps stay small and the key stays exact. A
// plan's entries hang on a chain from its id's slot, one per context it ran
// in; an id is recycled once no entry uses it, so the id maps are bounded by
// the entries. Entries are carved out of chunks that grow geometrically and
// an evicted entry's slot is reused, so a miss allocates nothing of its own
// and no table grows with the entries.
//
// The first request for a key computes it without the lock; a concurrent
// request for the same key waits for that result (single-flight). A hit
// copies the result out under the lock, and eviction clears the entry's
// result under it, so an evicted result is unreachable from the cache even
// though its chunk lives on. An entry dropped while requests still wait on
// it keeps its result for them alone, until the last has read it; only when
// the run that computed it panicked do they execute the plan themselves. One
// LRU list under a byte cap bounds the process, with an eviction counter and
// hit/miss statistics.
//
// Determinism: cached rows are returned by reference and shared between
// callers, which is safe because every consumer in this repo treats result
// rows as read-only (the same contract batch execution relies on for
// zero-copy scans). Eviction order depends on goroutine scheduling, but an
// evicted entry is simply recomputed — eviction affects performance, never
// results — so reports stay byte-identical with the cache on or off, at any
// worker count.
package rescache

import (
	"errors"
	"math"
	"sync"
	"unsafe"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/physical"
)

// runCtx is everything a run's outcome depends on besides the plan: the
// engine, the database state (catalog identity and mutation version) and the
// caps. With the plan text it is the cache key, exact — which is what makes
// caching errors (row-cap trips included) sound.
type runCtx struct {
	Engine  exec.Engine
	CatID   uint64
	CatVer  uint64
	MaxRows int
	MaxWork int64
}

// ids numbers the distinct values of one half of the key densely and counts
// the cached entries that use each number; a number no entry uses leaves the
// map and is handed out again, so the id map stays bounded by the entries.
type ids[K comparable] struct {
	of   map[K]uint32
	slot []idSlot[K]
	free []uint32
}

type idSlot[K comparable] struct {
	key  K
	live int32
	// first heads the chain of the id's entries, linked through entry.sib.
	// Only plan ids chain their entries.
	first *entry
}

// use counts one more entry under k's id and returns it: id, found as
// id, ok := t.of[k], or a fresh one when k has none.
func (t *ids[K]) use(k K, id uint32, ok bool) uint32 {
	if !ok {
		if n := len(t.free); n > 0 {
			id, t.free = t.free[n-1], t.free[:n-1]
			t.slot[id].key = k
		} else {
			id = uint32(len(t.slot))
			t.slot = append(t.slot, idSlot[K]{key: k})
		}
		t.of[k] = id
	}
	t.slot[id].live++
	return id
}

// release drops one entry's use of id, freeing the id with its last use.
func (t *ids[K]) release(id uint32) {
	s := &t.slot[id]
	if s.live--; s.live == 0 {
		delete(t.of, s.key)
		s.key = *new(K)
		t.free = append(t.free, id)
	}
}

// entry is one cached execution, in one of three states: in flight (size 0:
// its first requester is computing it, and it is on its plan's chain but not
// on the LRU list), admitted (size > 0: on both) or dropped (size < 0: on
// neither, holding its result — or errPanicked — only for the waiters that
// have yet to read it). Every field is guarded by Cache.mu.
type entry struct {
	plan, ctx uint32 // the entry's key: a plan id and a run-context id
	size      int32  // approxSize of the result once admitted; see above
	waiters   int32  // requests waiting for the in-flight result

	rows []datum.Row
	err  error

	prev, next *entry // LRU list, admitted entries only
	sib        *entry // the plan's next entry; the next free slot once recycled
}

// errPanicked is the outcome a dropped entry holds for its waiters when the
// run computing it panicked: they execute the plan themselves.
var errPanicked = errors.New("rescache: the run computing this result panicked")

// maxEntryShare bounds one entry to maxBytes/maxEntryShare: a result that
// large would evict most of the cache and then itself, so it is dropped at
// admit instead.
const maxEntryShare = 16

// Entries are carved out of chunks of minChunk slots at first, growing
// geometrically to maxChunk, so a small campaign does not pay for a chunk it
// never fills.
const minChunk, maxChunk = 8, 256

// Cache is the single-flight result cache. The zero value is not usable;
// call New. A nil *Cache is a valid "caching disabled" instance: Run falls
// through to direct execution.
type Cache struct {
	maxBytes int64

	mu         sync.Mutex
	computed   sync.Cond   // on mu: an in-flight entry was admitted or dropped
	plans      ids[string] // plan texts (physical.Expr.Hash)
	ctxs       ids[runCtx]
	chunk      []entry // the current chunk's uncarved slots
	carved     int     // slots in all chunks so far
	free       *entry  // recycled slots, linked through sib
	head, tail *entry  // LRU list, most recently used first
	entries    int
	bytes      int64

	hits, misses, evictions int64
}

// DefaultMaxBytes caps the cache at 256 MiB of (approximated) result bytes
// unless the caller chooses otherwise.
const DefaultMaxBytes = 256 << 20

// New returns an empty cache holding at most maxBytes of result data per
// the approxSize estimate; maxBytes <= 0 selects DefaultMaxBytes.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	c := &Cache{
		maxBytes: maxBytes,
		plans:    ids[string]{of: make(map[string]uint32)},
		ctxs:     ids[runCtx]{of: make(map[runCtx]uint32)},
	}
	c.computed.L = &c.mu
	return c
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
}

// Stats returns current counters. Hits counts requests served from an
// existing entry, including waiters that arrived while the result was still
// being computed; misses counts entries created. Each miss is one execution,
// and only the waiters of a run that panicked execute the plan besides.
// Evictions counts entries dropped: to stay under the byte cap, as too large
// to admit, or after their run panicked.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.entries, Bytes: c.bytes}
}

// Run executes the plan through the cache: a hit returns the memoized rows
// and error, a miss compiles and executes as exec.RunEngine does, exactly
// once no matter how many goroutines ask concurrently (unless that execution
// panics: then each waiting request executes the plan itself). A nil
// receiver executes directly.
func (c *Cache) Run(eng exec.Engine, plan *physical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	return c.RunProgram(exec.Compile(eng, plan), cat, maxRows, maxWork)
}

// RunProgram is Run for a plan prepared once for many databases: the key is
// the one Run gives the program's engine and plan, and a miss runs the
// program, so the operator tree a first miss compiled serves the later ones
// and a program that only ever hits compiles nothing.
func (c *Cache) RunProgram(p *exec.Program, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	if c == nil {
		return p.Run(cat, maxRows, maxWork)
	}
	plan := p.Plan().Hash()
	catID, catVer := cat.Identity()
	rc := runCtx{Engine: p.Engine(), CatID: catID, CatVer: catVer, MaxRows: maxRows, MaxWork: maxWork}

	c.mu.Lock()
	e, hit := c.claim(plan, rc)
	if !hit {
		c.mu.Unlock()
		return c.compute(e, p, cat, maxRows, maxWork)
	}
	if e.size == 0 {
		e.waiters++
		for e.size == 0 {
			c.computed.Wait()
		}
		e.waiters--
	}
	rows, err := e.rows, e.err
	if e.size < 0 { // dropped before this waiter read it
		if e.waiters == 0 {
			c.recycle(e)
		}
		c.mu.Unlock()
		if err == errPanicked {
			return p.Run(cat, maxRows, maxWork)
		}
		return rows, err
	}
	if e.prev != nil { // not at the front
		c.unlink(e)
		c.pushFront(e)
	}
	c.mu.Unlock()
	return rows, err
}

// claim counts a request for the key (plan, rc) and returns its entry and
// true on a hit; on a miss it returns a new in-flight entry for the caller to
// compute. The caller holds c.mu.
func (c *Cache) claim(plan string, rc runCtx) (*entry, bool) {
	pid, okp := c.plans.of[plan]
	cid, okc := c.ctxs.of[rc]
	if okp && okc {
		for e := c.plans.slot[pid].first; e != nil; e = e.sib {
			if e.ctx == cid {
				c.hits++
				return e, true
			}
		}
	}
	c.misses++
	c.entries++
	e := c.alloc()
	e.plan, e.ctx = c.plans.use(plan, pid, okp), c.ctxs.use(rc, cid, okc)
	s := &c.plans.slot[e.plan]
	e.sib, s.first = s.first, e
	return e, false
}

// compute runs p for the in-flight entry e, admits the result and returns
// it. Should the run panic, e is dropped holding errPanicked, so that its
// waiters run the plan themselves instead of waiting for a result that never
// comes.
func (c *Cache) compute(e *entry, p *exec.Program, cat *catalog.Catalog, maxRows int, maxWork int64) (rows []datum.Row, err error) {
	ran := false
	defer func() {
		if !ran {
			c.mu.Lock()
			e.err = errPanicked
			c.evict(e)
			c.mu.Unlock()
		}
	}()
	rows, err = p.Run(cat, maxRows, maxWork)
	ran = true
	size := approxSize(rows)
	c.mu.Lock()
	c.admit(e, rows, err, size)
	c.mu.Unlock()
	return rows, err
}

// alloc carves a zeroed entry out of the recycled slots or the current
// chunk, starting a chunk as large as all before it, within
// [minChunk, maxChunk], once that one is used up. The caller holds c.mu.
func (c *Cache) alloc() *entry {
	if e := c.free; e != nil {
		c.free, e.sib = e.sib, nil
		return e
	}
	if len(c.chunk) == 0 {
		c.chunk = make([]entry, min(max(c.carved, minChunk), maxChunk))
		c.carved += len(c.chunk)
	}
	e := &c.chunk[0]
	c.chunk = c.chunk[1:]
	return e
}

// recycle zeroes a dropped entry no waiter holds and puts its slot on the
// free list. The caller holds c.mu.
func (c *Cache) recycle(e *entry) {
	*e = entry{sib: c.free}
	c.free = e
}

// admit stores a freshly computed result in its entry, links the entry into
// the LRU and evicts from the cold end until the cache is back under its
// byte budget; it wakes the entry's waiters. An entry larger than
// maxBytes/maxEntryShare, or than an int32 holds, is dropped instead. The
// caller holds c.mu.
func (c *Cache) admit(e *entry, rows []datum.Row, err error, size int64) {
	e.rows, e.err = rows, err
	if size > min(c.maxBytes/maxEntryShare, math.MaxInt32) {
		c.evict(e)
		return
	}
	if e.waiters > 0 {
		c.computed.Broadcast()
	}
	e.size = int32(size)
	c.pushFront(e)
	c.bytes += size
	for c.bytes > c.maxBytes && c.tail != e {
		c.evict(c.tail)
	}
}

// evict drops an in-flight or admitted entry: it leaves the LRU list and its
// plan's chain and releases its two ids. With no waiter it is recycled at
// once, its result cleared; otherwise it keeps its result for the waiters,
// the last of which recycles it. The caller holds c.mu.
func (c *Cache) evict(e *entry) {
	if e.size > 0 {
		c.unlink(e)
		c.bytes -= int64(e.size)
	}
	link := &c.plans.slot[e.plan].first
	for *link != e {
		link = &(*link).sib
	}
	*link = e.sib
	c.plans.release(e.plan)
	c.ctxs.release(e.ctx)
	c.entries--
	c.evictions++
	if e.waiters > 0 {
		e.size, e.sib = -1, nil
		c.computed.Broadcast()
	} else {
		c.recycle(e)
	}
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// datumSize is the in-memory footprint of one Datum. A string's bytes live
// once, in the intern table, not in the results that hold it.
const datumSize = int64(unsafe.Sizeof(datum.Datum{}))

// rowHeaderSize is the slice header of one Row within a result slice.
const rowHeaderSize = int64(unsafe.Sizeof(datum.Row{}))

// entryCost is what an entry costs the cache besides its result: its slot
// in a chunk. The id maps grow with distinct plans and contexts, not with
// entries, and are left out.
const entryCost = int64(unsafe.Sizeof(entry{}))

// approxSize estimates the retained bytes of a cached result: entryCost plus
// row headers and datum structs. The id tables and the chunks' uncarved
// slots are ignored, so the byte cap is an approximation — good enough to
// bound the process, which is all eviction is for.
func approxSize(rows []datum.Row) int64 {
	n := entryCost
	for _, r := range rows {
		n += rowHeaderSize + datumSize*int64(len(r))
	}
	return n
}
