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
// The table is plan-major under one mutex: the plan text is hashed once, into
// a map of distinct plans, and the rest of the key — small, fixed-size and
// pointer-free — selects one of that plan's runs. A campaign has far fewer
// distinct plans than executions (a verify sweep runs each plan on up to a
// hundred tiny databases), so the string-keyed map stays small and a lookup
// costs one string hash plus a few words. A sync.Once per entry makes
// concurrent requests for one key execute once and share the result
// (single-flight); the lock is never held while a result is computed. One
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
	"sync"
	"unsafe"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/physical"
)

// key identifies one execution: what ran, against which database state, and
// under which caps. Everything RunEngine's outcome depends on is in the key,
// which is what makes caching errors (row-cap trips included) sound.
type key struct {
	Plan    string // physical.Expr.Hash fingerprint
	CatID   uint64 // catalog identity; process-unique per Catalog value
	CatVer  uint64 // catalog mutation version
	MaxRows int
	MaxWork int64
	Engine  exec.Engine
}

// keyFor builds the cache key for one execution.
func keyFor(eng exec.Engine, plan *physical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) key {
	id, ver := cat.Identity()
	return key{
		Plan:    plan.Hash(),
		CatID:   id,
		CatVer:  ver,
		MaxRows: maxRows,
		MaxWork: maxWork,
		Engine:  eng,
	}
}

// runKey is a key without its plan text: which run of one plan.
type runKey struct {
	Engine  exec.Engine
	CatID   uint64
	CatVer  uint64
	MaxRows int
	MaxWork int64
}

// planRuns is every cached run of one plan. It leaves the cache's plan map
// when its last run does.
type planRuns struct {
	plan string
	runs map[runKey]*entry
}

// entry is one cached execution. The sync.Once provides single-flight: the
// first goroutine to claim the entry computes, everyone else blocks on Do
// and then reads the shared result.
type entry struct {
	pr   *planRuns
	rk   runKey
	once sync.Once

	rows []datum.Row
	err  error
	size int64

	// LRU list hooks; an entry joins the list only after its result is
	// computed, so an in-flight entry is never evicted.
	prev, next *entry
	listed     bool
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
	plans      map[string]*planRuns
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
	return &Cache{maxBytes: maxBytes, plans: make(map[string]*planRuns)}
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
	s := Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Bytes: c.bytes}
	for _, pr := range c.plans {
		s.Entries += len(pr.runs)
	}
	return s
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
	k := keyFor(p.Engine(), p.Plan(), cat, maxRows, maxWork)
	rk := runKey{Engine: k.Engine, CatID: k.CatID, CatVer: k.CatVer, MaxRows: k.MaxRows, MaxWork: k.MaxWork}

	c.mu.Lock()
	pr := c.plans[k.Plan]
	if pr == nil {
		pr = &planRuns{plan: k.Plan, runs: make(map[runKey]*entry)}
		c.plans[k.Plan] = pr
	}
	e := pr.runs[rk]
	if e != nil {
		c.hits++
		if e.listed {
			c.moveToFront(e)
		}
	} else {
		c.misses++
		e = &entry{pr: pr, rk: rk}
		pr.runs[rk] = e
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.rows, e.err = p.Run(cat, maxRows, maxWork)
		e.size = approxSize(e.rows)
		c.admit(e)
	})
	return e.rows, e.err
}

// admit links a freshly computed entry into the LRU and evicts from the cold
// end until the cache is back under its byte budget. An entry larger than
// maxBytes/maxEntryShare is dropped instead.
func (c *Cache) admit(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.size > c.maxBytes/maxEntryShare {
		c.evict(e)
		return
	}
	c.pushFront(e)
	c.bytes += e.size
	for c.bytes > c.maxBytes && c.tail != e {
		c.evict(c.tail)
	}
}

// evict drops an entry, and its plan with it when no run is left. The
// caller holds c.mu.
func (c *Cache) evict(e *entry) {
	if e.listed {
		c.unlink(e)
		c.bytes -= e.size
	}
	delete(e.pr.runs, e.rk)
	if len(e.pr.runs) == 0 {
		delete(c.plans, e.pr.plan)
	}
	c.evictions++
}

func (c *Cache) pushFront(e *entry) {
	e.listed = true
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
	e.listed = false
}

func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// datumSize is the in-memory footprint of one Datum. A string's bytes live
// once, in the intern table, not in the results that hold it.
const datumSize = int64(unsafe.Sizeof(datum.Datum{}))

// rowHeaderSize is the slice header of one Row within a result slice.
const rowHeaderSize = int64(unsafe.Sizeof(datum.Row{}))

// approxSize estimates the retained bytes of a materialized result. It
// counts row headers and datum structs; map/list overhead of the cache itself
// is ignored, so the byte cap is an approximation — good enough to bound the
// process, which is all eviction is for.
func approxSize(rows []datum.Row) int64 {
	n := int64(64) // entry struct + map slot, roughly
	for _, r := range rows {
		n += rowHeaderSize + datumSize*int64(len(r))
	}
	return n
}
