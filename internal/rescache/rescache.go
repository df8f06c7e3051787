// Package rescache is a sharded, single-flight execution-result cache.
// Campaigns execute the same physical plan against the same database over
// and over — Plan(q) vs Plan(q,¬R) when rule R never fires, shrinker replays
// that differ by one reduction, metamorphic rewrites sharing subplans, and
// qtrtest verify's bounded pairs over a tiny database pool. The cache keys
// executions by (plan fingerprint, catalog identity/version, row cap, work
// budget, engine) and memoizes the materialized result — including the error
// outcome, since execution is deterministic given the key — so every
// recurrence after the first is a map hit.
//
// The design follows the PR-1 edge-costing cache in internal/core/suite:
// fixed shard array indexed by key hash, per-shard mutex around a map of
// entries, and a sync.Once per entry so concurrent requests for the same key
// execute once and share the result (single-flight). On top of that it adds
// what a long-running service needs (ROADMAP item 1): a per-shard LRU list
// with a byte-size cap, an eviction counter, and hit/miss statistics.
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
	"sync/atomic"
	"unsafe"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
)

// Key identifies one execution: what ran, against which database state, and
// under which caps. Everything RunEngine's outcome depends on is in the key,
// which is what makes caching errors (row-cap trips included) sound.
type Key struct {
	Plan    string // physical.Expr.Hash fingerprint
	CatID   uint64 // catalog identity; process-unique per Catalog value
	CatVer  uint64 // catalog mutation version
	MaxRows int
	MaxWork int64
	Engine  exec.Engine
}

// KeyFor builds the cache key for one execution. It is exported so oracle
// budgets (the shrinker's miss-only accounting) can reason about execution
// identity without depending on cache internals.
func KeyFor(eng exec.Engine, plan *physical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) Key {
	id, ver := cat.Identity()
	return Key{
		Plan:    plan.Hash(),
		CatID:   id,
		CatVer:  ver,
		MaxRows: maxRows,
		MaxWork: maxWork,
		Engine:  eng,
	}
}

// KeyForTree builds the cache key for a logical-tree execution on a
// tree-capable backend. The engine dimension alone already separates
// backend results from the built-in engines'; the fingerprint prefix
// additionally separates a tree evaluation from a (hypothetical) plan
// execution on the same backend.
func KeyForTree(eng exec.Engine, tree *logical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) Key {
	id, ver := cat.Identity()
	return Key{
		Plan:    "tree|" + tree.Hash(),
		CatID:   id,
		CatVer:  ver,
		MaxRows: maxRows,
		MaxWork: maxWork,
		Engine:  eng,
	}
}

// entry is one cached execution. The sync.Once provides single-flight: the
// first goroutine to claim the entry computes, everyone else blocks on Do
// and then reads the shared result.
type entry struct {
	key  Key
	once sync.Once

	rows []datum.Row
	err  error
	size int64

	// LRU list hooks; an entry joins its shard's list only after its
	// result is computed (in-flight entries are not evictable).
	prev, next *entry
	listed     bool
}

// shard is one lock domain: a key-to-entry map plus an LRU list ordered
// most-recently-used first.
type shard struct {
	mu         sync.Mutex
	entries    map[Key]*entry
	head, tail *entry
	bytes      int64
}

const numShards = 16

// Cache is the sharded single-flight result cache. The zero value is not
// usable; call New. A nil *Cache is a valid "caching disabled" instance:
// Run falls through to direct execution.
type Cache struct {
	shards   [numShards]shard
	maxBytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
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
	c := &Cache{maxBytes: maxBytes}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*entry)
	}
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
// existing entry (including waiters that arrived while the result was still
// being computed); misses counts entries created; evictions counts entries
// dropped to stay under the byte cap.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.entries)
		s.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

// shardFor assigns keys to shards with FNV-1a over the key fields. The hash
// is deliberately unseeded: shard assignment (and hence eviction behavior)
// is a pure function of the key stream, which keeps cache behavior
// reproducible run-to-run at a fixed worker count.
func (c *Cache) shardFor(k Key) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.Plan); i++ {
		h = (h ^ uint64(k.Plan[i])) * prime64
	}
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime64
			v >>= 8
		}
	}
	mix(k.CatID)
	mix(k.CatVer)
	mix(uint64(k.MaxRows))
	mix(uint64(k.MaxWork))
	mix(uint64(k.Engine))
	return &c.shards[h%numShards]
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
	return c.runKeyed(KeyFor(p.Engine(), p.Plan(), cat, maxRows, maxWork), func() ([]datum.Row, error) {
		return p.Run(cat, maxRows, maxWork)
	})
}

// RunTree executes a logical tree on a tree-capable backend through the
// cache, with the same hit/miss/single-flight behavior as Run. Tree and
// plan executions live in one keyspace but cannot collide: tree keys carry
// the "tree|" fingerprint prefix (physical and logical fingerprints both
// start with an operator number) and a backend engine ID.
func (c *Cache) RunTree(eng exec.Engine, tree *logical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	if c == nil {
		return exec.RunTree(eng, tree, cat, maxRows, maxWork)
	}
	return c.runKeyed(KeyForTree(eng, tree, cat, maxRows, maxWork), func() ([]datum.Row, error) {
		return exec.RunTree(eng, tree, cat, maxRows, maxWork)
	})
}

// runKeyed is the shared cache core: look up the key, claim or join the
// entry, compute once under the entry's sync.Once.
func (c *Cache) runKeyed(k Key, compute func() ([]datum.Row, error)) ([]datum.Row, error) {
	sh := c.shardFor(k)

	sh.mu.Lock()
	e, ok := sh.entries[k]
	if ok {
		if e.listed {
			sh.moveToFront(e)
		}
		sh.mu.Unlock()
		c.hits.Add(1)
	} else {
		e = &entry{key: k}
		sh.entries[k] = e
		sh.mu.Unlock()
		c.misses.Add(1)
	}

	e.once.Do(func() {
		e.rows, e.err = compute()
		e.size = approxSize(e.rows)
		c.admit(sh, e)
	})
	return e.rows, e.err
}

// admit links a freshly computed entry into its shard's LRU and evicts from
// the cold end until the shard is back under its share of the byte budget.
// An entry larger than the whole shard budget is dropped immediately — it
// would only evict everything else and then itself on the next admit.
func (c *Cache) admit(sh *shard, e *entry) {
	budget := c.maxBytes / numShards
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// The entry may have been evicted from the map while it was being
	// computed (possible only via an explicit future Purge-style API; today
	// in-flight entries stay mapped, but be defensive).
	if sh.entries[e.key] != e {
		return
	}
	if e.size > budget {
		delete(sh.entries, e.key)
		c.evictions.Add(1)
		return
	}
	sh.pushFront(e)
	sh.bytes += e.size
	for sh.bytes > budget && sh.tail != nil && sh.tail != e {
		c.evictLocked(sh, sh.tail)
	}
}

func (c *Cache) evictLocked(sh *shard, e *entry) {
	sh.unlink(e)
	delete(sh.entries, e.key)
	sh.bytes -= e.size
	c.evictions.Add(1)
}

func (sh *shard) pushFront(e *entry) {
	e.listed = true
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.listed = false
}

func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// datumSize is the in-memory footprint of one Datum excluding string bytes.
const datumSize = int64(unsafe.Sizeof(datum.Datum{}))

// rowHeaderSize is the slice header of one Row within a result slice.
const rowHeaderSize = int64(unsafe.Sizeof(datum.Row{}))

// approxSize estimates the retained bytes of a materialized result. It
// counts row headers, datum structs and string payloads; map/list overhead
// of the cache itself is ignored, so the byte cap is an approximation — good
// enough to bound the process, which is all eviction is for.
func approxSize(rows []datum.Row) int64 {
	n := int64(64) // entry struct + map slot, roughly
	for _, r := range rows {
		n += rowHeaderSize + datumSize*int64(len(r))
		for i := range r {
			n += int64(len(r[i].S))
		}
	}
	return n
}
