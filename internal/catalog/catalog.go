// Package catalog defines the test database: schemas, tables, statistics and
// the in-memory data they hold. The paper's framework takes a fixed test
// database as input (§2.3); we provide a deterministic scaled-down TPC-H
// instance as the default.
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"qtrtest/internal/datum"
)

// Column describes one column of a table.
type Column struct {
	Name     string
	Type     datum.Type
	Nullable bool
}

// ForeignKey records that Columns of this table reference RefColumns of
// RefTable. Rules such as star-join optimizations consult these.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// Stats summarizes a table for cardinality estimation.
type Stats struct {
	RowCount int64
	// DistinctCount maps column name to an estimate of its number of
	// distinct values.
	DistinctCount map[string]int64
	// Histograms maps numeric column names to equi-depth histograms used
	// for range-predicate selectivity.
	Histograms map[string]*Histogram
}

// Table is a named relation with columns, optional keys and in-memory rows.
type Table struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string // column names; empty if none
	ForeignKeys []ForeignKey
	Rows        []datum.Row
	Stats       Stats

	colOnce sync.Once
	colIdx  map[string]int

	vecOnce buildOnce
	vecs    []datum.Vec
	seqIdx  []int

	joinMu  sync.Mutex
	joinIdx []*joinIndex // one per key-column set asked for
}

type joinIndex struct {
	slots []int
	once  buildOnce
	idx   datum.KeyIndex
}

// buildOnce runs a build of a table's derived data exactly once, like
// sync.Once, but remembers a build that panicked (a row shorter than the
// table's columns) and panics with the same value on every later call. A
// sync.Once would count the failed build as done, and every later execution
// would read the empty data it left: no rows and no error.
type buildOnce struct {
	once     sync.Once
	panicked any
}

func (b *buildOnce) Do(build func()) {
	b.once.Do(func() {
		defer func() {
			if b.panicked = recover(); b.panicked != nil {
				panic(b.panicked)
			}
		}()
		build()
	})
	if b.panicked != nil {
		panic(b.panicked)
	}
}

// JoinIndex returns the table's key index over the given key-column
// ordinals, built on first use by the builder joins use for a drained build
// side. Tables are immutable during a run, so the index, like ColumnData, is
// computed once per (table, key columns) and shared, read-only, by every join
// that builds against a bare scan of the table. Finding a built index costs
// no allocation: a table has a few key-column sets, searched in order.
func (t *Table) JoinIndex(slots []int) *datum.KeyIndex {
	t.joinMu.Lock()
	i := slices.IndexFunc(t.joinIdx, func(ji *joinIndex) bool { return slices.Equal(ji.slots, slots) })
	if i < 0 {
		i = len(t.joinIdx)
		t.joinIdx = append(t.joinIdx, &joinIndex{slots: slices.Clone(slots)})
	}
	ji := t.joinIdx[i]
	t.joinMu.Unlock()
	ji.once.Do(func() { ji.idx.Build(t.ColumnData(), ji.slots, len(t.Rows)) })
	return &ji.idx
}

// ColumnIndex returns the ordinal of the named column, or -1. It is safe for
// concurrent use: the name index is built exactly once, under a sync.Once,
// so concurrent optimizations over a shared catalog never race on it.
func (t *Table) ColumnIndex(name string) int {
	t.colOnce.Do(func() {
		idx := make(map[string]int, len(t.Columns))
		for i, c := range t.Columns {
			idx[c.Name] = i
		}
		t.colIdx = idx
	})
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// ColumnData returns the table's rows transposed into per-column vectors for
// batch execution. The transposition is computed exactly once, under a
// buildOnce, so concurrent executions over a shared catalog never race; the
// caller must treat the vectors as read-only. Rows must be final before the
// first call — later mutations are not reflected.
func (t *Table) ColumnData() []datum.Vec {
	t.vecOnce.Do(func() {
		t.vecs = datum.ColumnVecs(t.Rows, len(t.Columns))
		idx := make([]int, len(t.Rows))
		for i := range idx {
			idx[i] = i
		}
		t.seqIdx = idx
	})
	return t.vecs
}

// SeqIdx returns the shared read-only selection vector [0, 1, … len(Rows)-1]
// batch scans slice windows out of.
func (t *Table) SeqIdx() []int {
	t.ColumnData()
	return t.seqIdx
}

// ComputeStats scans the rows and fills in Stats.
func (t *Table) ComputeStats() {
	st := Stats{RowCount: int64(len(t.Rows)), DistinctCount: make(map[string]int64, len(t.Columns))}
	for i, c := range t.Columns {
		seen := make(map[string]bool)
		for _, r := range t.Rows {
			seen[r[i].String()] = true
		}
		st.DistinctCount[c.Name] = int64(len(seen))
	}
	t.Stats = st
	t.ComputeHistograms()
}

// Catalog is a set of tables forming the test database.
type Catalog struct {
	tables map[string]*Table

	// id is a process-unique identity and version a mutation counter; the
	// pair lets result caches key executions by "which database" without
	// hashing table contents. Two Catalog values never share an id, so a
	// (id, version) pair seen twice is guaranteed to denote the same tables
	// holding the same rows — provided callers follow the house rule that
	// table rows are final before the first execution (the same contract
	// ColumnData and JoinIndex already rely on).
	id      uint64
	version uint64
	// scale is the row scale a loader built the catalog at.
	scale float64
}

// catalogIDs hands out process-unique catalog identities.
var catalogIDs atomic.Uint64

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table), id: catalogIDs.Add(1)}
}

// ScaleRows is the row scale LoadTPCH or LoadStar built the catalog at, or
// zero for a catalog assembled table by table.
func (c *Catalog) ScaleRows() float64 { return c.scale }

// Add registers a table; it replaces any existing table of the same name.
func (c *Catalog) Add(t *Table) {
	c.tables[t.Name] = t
	c.version++
}

// Identity returns the catalog's process-unique identity and its mutation
// version. Result caches use the pair as the database component of their
// keys; see the type comment for the immutability contract that makes the
// pair sufficient.
func (c *Catalog) Identity() (id, version uint64) {
	return c.id, c.version
}

// Table returns the named table or an error.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// MustTable returns the named table and panics if absent; for use by code
// that has already validated the name (e.g. the TPC-H loader's own tests).
func (c *Catalog) MustTable(name string) *Table {
	t, err := c.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// TableNames returns all table names in sorted order for deterministic
// iteration by generators.
func (c *Catalog) TableNames() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NumTables returns the number of tables.
func (c *Catalog) NumTables() int { return len(c.tables) }
