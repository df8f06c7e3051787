// Package rescache is a single-flight execution-result cache. Campaigns
// execute the same physical plan against the same database over and over —
// Plan(q) vs Plan(q,¬R) when rule R never fires, shrinker replays that differ
// by one reduction, metamorphic rewrites sharing subplans, and qtrtest
// verify's bounded pairs over a tiny database pool. The cache keys executions
// by (plan fingerprint, catalog identity/version, row cap, work budget,
// engine) and memoizes the materialized result — including the error
// outcome, since execution is deterministic given the key — so every
// recurrence after the first is a map hit. The reference-engine cross-check
// is a plan execution like the others (the query's lowered tree, run on
// exec.EngineRef), so one key shape covers every execution.
//
// The table is one flat map under one mutex, keyed by two dense 32-bit ids
// packed into a uint64: one numbers the plan text, the other the run context
// (engine, catalog identity and version, caps). A campaign has far fewer
// distinct plans and contexts than executions — a verify sweep makes 32 048
// entries from 974 plans and 250 contexts — so the two id maps stay small,
// the table's slots are two words, and the key stays exact. An id is
// recycled once no entry uses it, so the id maps are bounded by the entries.
// A sync.Once per entry makes concurrent requests for one key execute once
// and share the result (single-flight); the lock is never held while a
// result is computed. One LRU list under a byte cap bounds the process, with
// an eviction counter and hit/miss statistics.
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

// entry is one cached execution. The sync.Once provides single-flight: the
// first goroutine to claim the entry computes, everyone else blocks on Do
// and then reads the shared result.
type entry struct {
	id   uint64 // plan id << 32 | run context id: the entry's table key
	once sync.Once
	size int32 // approxSize of the result, set when it is admitted

	rows []datum.Row
	err  error

	// LRU list hooks; an entry joins the list only after its result is
	// computed, so an in-flight entry is never evicted and never frees
	// its ids.
	prev, next *entry
}

// maxEntryShare bounds one entry to maxBytes/maxEntryShare: a result that
// large would evict most of the cache and then itself, so it is dropped at
// admit instead.
const maxEntryShare = 16

// Cache is the single-flight result cache. The zero value is not usable;
// call New. A nil *Cache is a valid "caching disabled" instance: Run falls
// through to direct execution.
type Cache struct {
	maxBytes int64

	mu         sync.Mutex
	plans      ids[string] // plan texts (physical.Expr.Hash)
	ctxs       ids[runCtx]
	table      map[uint64]*entry
	head, tail *entry // LRU list, most recently used first
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
	return &Cache{
		maxBytes: maxBytes,
		plans:    ids[string]{of: make(map[string]uint32)},
		ctxs:     ids[runCtx]{of: make(map[runCtx]uint32)},
		table:    make(map[uint64]*entry),
	}
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
// existing entry (including waiters that arrived while the result was still
// being computed); misses counts entries created; evictions counts entries
// dropped to stay under the byte cap.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.table), Bytes: c.bytes}
}

// Run executes the plan through the cache: a hit returns the memoized rows
// and error, a miss compiles and executes as exec.RunEngine does, exactly
// once no matter how many goroutines ask concurrently. A nil receiver
// executes directly.
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
	var e *entry
	pid, okp := c.plans.of[plan]
	cid, okc := c.ctxs.of[rc]
	if okp && okc {
		e = c.table[uint64(pid)<<32|uint64(cid)]
	}
	if e != nil {
		c.hits++
		if e.prev != nil { // listed, and not at the front
			c.unlink(e)
			c.pushFront(e)
		}
	} else {
		c.misses++
		e = &entry{id: uint64(c.plans.use(plan, pid, okp))<<32 | uint64(c.ctxs.use(rc, cid, okc))}
		c.table[e.id] = e
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.rows, e.err = p.Run(cat, maxRows, maxWork)
		c.admit(e, approxSize(e.rows))
	})
	return e.rows, e.err
}

// admit links a freshly computed entry into the LRU and evicts from the cold
// end until the cache is back under its byte budget. An entry larger than
// maxBytes/maxEntryShare, or than an int32 holds, is dropped instead.
func (c *Cache) admit(e *entry, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > min(c.maxBytes/maxEntryShare, math.MaxInt32) {
		c.evict(e)
		return
	}
	e.size = int32(size)
	c.pushFront(e)
	c.bytes += size
	for c.bytes > c.maxBytes && c.tail != e {
		c.evict(c.tail)
	}
}

// evict drops an entry and releases its two ids. The caller holds c.mu.
func (c *Cache) evict(e *entry) {
	if e.prev != nil || c.head == e { // listed
		c.unlink(e)
		c.bytes -= int64(e.size)
	}
	delete(c.table, e.id)
	c.plans.release(uint32(e.id >> 32))
	c.ctxs.release(uint32(e.id))
	c.evictions++
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

// entryCost is what an entry costs the cache besides its result: the entry
// itself and its slot of the table.
const entryCost = int64(unsafe.Sizeof(entry{}) + unsafe.Sizeof(uint64(0)) + unsafe.Sizeof((*entry)(nil)))

// approxSize estimates the retained bytes of a cached result: entryCost plus
// row headers and datum structs. The id tables and the table's spare slots
// are ignored, so the byte cap is an approximation — good enough to bound
// the process, which is all eviction is for.
func approxSize(rows []datum.Row) int64 {
	n := entryCost
	for _, r := range rows {
		n += rowHeaderSize + datumSize*int64(len(r))
	}
	return n
}
