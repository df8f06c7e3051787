package logical

import (
	"fmt"
	"slices"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/scalar"
)

// ColumnMeta describes one ColumnID: where it came from and its type.
type ColumnMeta struct {
	// Name is a display name; synthesized columns get "c<ID>"-style names.
	Name string
	Type datum.Type
	// Table and TableCol identify the base column for columns produced by
	// Get; both are empty for computed columns.
	Table    string
	TableCol string
}

// Metadata allocates ColumnIDs for one query and records what each refers to.
// Every logical tree is interpreted relative to exactly one Metadata.
type Metadata struct {
	cols   []ColumnMeta // index = ColumnID-1
	cat    *catalog.Catalog
	tables int
}

// NewMetadata returns metadata bound to the given catalog.
func NewMetadata(cat *catalog.Catalog) *Metadata {
	return &Metadata{cat: cat}
}

// Catalog returns the catalog the metadata resolves tables against.
func (m *Metadata) Catalog() *catalog.Catalog { return m.cat }

// Clone returns an independent copy of the metadata: the clone starts with
// the same columns but further allocations on either side are invisible to
// the other. The optimizer clones the metadata per optimization so that
// concurrent optimizations of the same query neither race on the column
// table nor observe each other's synthesized columns (which would make
// ColumnID allocation — and therefore plans — scheduling-dependent).
func (m *Metadata) Clone() *Metadata {
	cols := make([]ColumnMeta, len(m.cols))
	copy(cols, m.cols)
	return &Metadata{cols: cols, cat: m.cat, tables: m.tables}
}

// CowClone returns a copy-on-write clone in O(1): the clone shares the
// base's column table for reads, and its capacity is clipped so the first
// AddColumn reallocates onto a private array instead of writing into shared
// memory. The optimizer uses this instead of Clone on its hot path — most
// Optimize calls (every RuleSet probe and Plan(q,¬R) edge costing) never
// synthesize a column, so they never pay for a copy, while the ones that do
// stay exactly as race-free and schedule-independent as before: concurrent
// clones of one base only ever read the shared prefix.
func (m *Metadata) CowClone() *Metadata {
	return &Metadata{cols: m.cols[:len(m.cols):len(m.cols)], cat: m.cat, tables: m.tables}
}

// Reset empties the metadata for a new query on the same catalog and keeps
// its column table's storage for the new query's columns. Nothing built
// against the metadata before the Reset may be used after it.
func (m *Metadata) Reset() {
	m.cols, m.tables = m.cols[:0], 0
}

// Fill overwrites with meta the column table's storage past its columns:
// what a Reset dropped and no AddColumn has reused yet. Tests poison it so
// that a reader of a dropped column reads garbage.
func (m *Metadata) Fill(meta ColumnMeta) {
	spare := m.cols[len(m.cols):cap(m.cols)]
	for i := range spare {
		spare[i] = meta
	}
}

// AddColumn allocates a fresh ColumnID.
func (m *Metadata) AddColumn(meta ColumnMeta) scalar.ColumnID {
	m.cols = append(m.cols, meta)
	return scalar.ColumnID(len(m.cols))
}

// Column returns the metadata for id; it panics on an unknown id, which
// always indicates a bug in tree construction.
func (m *Metadata) Column(id scalar.ColumnID) ColumnMeta {
	if id < 1 || int(id) > len(m.cols) {
		panic(fmt.Sprintf("logical: unknown column id %d", id))
	}
	return m.cols[id-1]
}

// TypeEnv adapts the metadata to the scalar type checker, bounds-checked so
// an unknown ColumnID is "unknown" rather than a panic.
func (m *Metadata) TypeEnv() scalar.TypeEnv {
	return func(id scalar.ColumnID) (datum.Type, bool) {
		if id < 1 || int(id) > len(m.cols) {
			return datum.TypeUnknown, false
		}
		return m.cols[id-1].Type, true
	}
}

// AddTable allocates fresh ColumnIDs for every column of the named table and
// returns a Get expression over them. Each call returns distinct ids, so the
// same table can be scanned several times in one query.
func (m *Metadata) AddTable(name string) (*Expr, error) {
	t, err := m.cat.Table(name)
	if err != nil {
		return nil, err
	}
	m.tables++
	m.cols = slices.Grow(m.cols, len(t.Columns))
	ids := make([]scalar.ColumnID, len(t.Columns))
	for i, col := range t.Columns {
		ids[i] = m.AddColumn(ColumnMeta{
			Name:     col.Name,
			Type:     col.Type,
			Table:    name,
			TableCol: col.Name,
		})
	}
	return &Expr{Op: OpGet, Table: name, Cols: ids}, nil
}

// BaseColumn returns the catalog column behind id, or ok=false for computed
// columns.
func (m *Metadata) BaseColumn(id scalar.ColumnID) (table *catalog.Table, colIdx int, ok bool) {
	cm := m.Column(id)
	if cm.Table == "" {
		return nil, 0, false
	}
	t, err := m.cat.Table(cm.Table)
	if err != nil {
		return nil, 0, false
	}
	idx := t.ColumnIndex(cm.TableCol)
	if idx < 0 {
		return nil, 0, false
	}
	return t, idx, true
}
