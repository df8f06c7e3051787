package exec

import (
	"fmt"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// The batch engine converts the hot operators — scan, filter, project, hash
// and nested-loops join, aggregation — to columnar processing: operators
// exchange Batches of column vectors instead of single rows, amortizing
// interpretation overhead and eliminating the per-row key-string and
// combined-row allocations of the Volcano engine. Operators without a
// columnar implementation (sort, limit, concat, merge join) still run
// row-at-a-time inside the same plan through adapter shims, and the row
// engine remains available as EngineRow — the differential golden tests pin
// the two engines to identical results and emission order, and to identical
// budget verdicts on plans without a Limit (compile.go states the rest).

const (
	// batchSize is the nominal number of rows per batch. Scans and adapters
	// emit at most this many rows per batch; joins may emit up to candidateCap
	// rows when a probe chunk is match-dense.
	batchSize = 1024
	// candidateCap bounds the candidate join pairs gathered per probe chunk,
	// which bounds the memory a match-heavy (e.g. dropped-predicate) join can
	// pin regardless of fan-out.
	candidateCap = 4096
)

// denseIota is the shared read-only selection vector behind iotaSel. Its length
// covers the common batches — a left join's candidate matches plus one
// fallout row per row of a scan-sized probe batch — but not every batch: a
// left join whose probe batch is itself a join's output emits more.
var denseIota = func() []int {
	s := make([]int, candidateCap+batchSize)
	for i := range s {
		s[i] = i
	}
	return s
}()

// iotaSel returns the identity selection 0..n-1 for an operator producing dense
// output: a read-only slice of denseIota when that is long enough, else a
// fresh slice the caller owns. ownSel tells the two apart where scratch goes
// back to a pool.
func iotaSel(n int) []int {
	if n <= len(denseIota) {
		return denseIota[:n]
	}
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// Batch is a unit of columnar data flow: one vector per output column plus a
// selection vector. Row k of the batch is (Cols[0].D[Idx[k]], Cols[1].D[Idx[k]], …);
// filters shrink Idx without touching the vectors. A batch and its backing
// arrays are only valid until the producer's next Next call.
type Batch struct {
	Cols []datum.Vec
	Idx  []int
	// Rows, when non-nil, is a ready-made row view of the batch: Rows[k] is
	// row k (the row Idx[k] selects), backed by stable storage that outlives
	// the batch. Producers that already hold materialized rows — scans window
	// the catalog's row slice — set it so consumers that need rows can skip
	// gathering. Operators that reshape the batch (filter, join, aggregate)
	// drop it; they construct fresh Batch values, so staleness cannot leak.
	Rows []datum.Row
}

// Len returns the number of selected rows in the batch.
func (b *Batch) Len() int { return len(b.Idx) }

// BatchIterator is the columnar operator interface: Open, then Next until it
// returns a nil batch, then Close.
type BatchIterator interface {
	Open() error
	// Next returns the next non-empty batch, or (nil, nil) at end of stream.
	Next() (*Batch, error)
	Close() error
}

// Engine selects an execution strategy; the engines are result-identical by
// contract.
type Engine int

// Available engines.
const (
	// EngineBatch executes hot operators columnar with row-at-a-time shims
	// for the rest. The default, and the engine every campaign runs on.
	EngineBatch Engine = iota
	// EngineRow is the original Volcano row-at-a-time engine, retained as
	// the differential baseline and reachable as a cross-check backend.
	EngineRow
	// EngineRef is the independent reference interpreter
	// (internal/refengine), registered through the Backend seam in
	// backend.go. It evaluates logical trees directly and shares no
	// evaluation code with the two engines above, which is what makes it a
	// usable cross-check oracle for both of them.
	EngineRef
)

// String returns the engine name as spelled in reports and benchmarks.
func (e Engine) String() string {
	switch e {
	case EngineRow:
		return "row"
	case EngineBatch:
		return "batch"
	}
	if b := backendFor(e); b != nil {
		return b.Name()
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// runBatch opens, drains and closes a batch iterator, gathering result rows
// with the same maxRows semantics as runIter. A failed Open is closed too: the
// operators below the failure did open and hold pooled scratch, and Close is
// safe on an operator that never opened.
func runBatch(it BatchIterator, maxRows int) (out []datum.Row, err error) {
	defer func() {
		if cerr := it.Close(); cerr != nil && err == nil {
			out, err = nil, cerr
		}
	}()
	if err := it.Open(); err != nil {
		return nil, err
	}
	for {
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		if maxRows > 0 && len(out)+b.Len() > maxRows {
			return nil, ErrRowLimit
		}
		out = append(out, gatherRows(b)...)
	}
}

// gatherRows materializes a batch into rows backed by one shared slab
// allocation, written column-at-a-time: the per-row make() this replaces
// dominated the profile of scan-heavy plans. Batches that carry a row view
// skip even the slab — a bare scan returns the catalog's own rows, the same
// zero-copy contract the row engine's scanIter has always had.
func gatherRows(b *Batch) []datum.Row {
	if b.Rows != nil {
		return b.Rows
	}
	width := len(b.Cols)
	n := b.Len()
	slab := make([]datum.Datum, n*width)
	for c := range b.Cols {
		d := b.Cols[c].D
		for k, ri := range b.Idx {
			slab[k*width+c] = d[ri]
		}
	}
	rows := make([]datum.Row, n)
	for k := range rows {
		rows[k] = slab[k*width : (k+1)*width : (k+1)*width]
	}
	return rows
}

// ---- adapters ---------------------------------------------------------------

// rowFromBatch adapts a batch subtree for a row-at-a-time consumer. Each
// batch is materialized once into slab-backed rows because row operators
// (sort, join build sides) retain rows past the batch's lifetime.
type rowFromBatch struct {
	child BatchIterator
	rows  []datum.Row
	pos   int
}

func (r *rowFromBatch) Open() error {
	r.rows, r.pos = nil, 0
	return r.child.Open()
}

func (r *rowFromBatch) Next() (datum.Row, error) {
	for r.pos >= len(r.rows) {
		b, err := r.child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		r.rows, r.pos = gatherRows(b), 0
	}
	row := r.rows[r.pos]
	r.pos++
	return row, nil
}

func (r *rowFromBatch) Close() error {
	r.rows = nil
	return r.child.Close()
}

// batchFromRows adapts a row subtree for a batch consumer, accumulating up to
// batchSize rows per batch into reused vectors.
type batchFromRows struct {
	child iterator
	width int
	s     *opScratch
	out   Batch
}

func (b *batchFromRows) Open() error {
	if b.s == nil {
		b.s = getOpScratch()
	}
	return b.child.Open()
}

func (b *batchFromRows) Next() (*Batch, error) {
	b.s.vecs = sizeVecs(b.s.vecs, b.width)
	vecs := b.s.vecs
	n := 0
	for n < batchSize {
		row, err := b.child.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		for c := range vecs {
			vecs[c].Append(row[c])
		}
		n++
	}
	if n == 0 {
		return nil, nil
	}
	b.out = Batch{Cols: vecs, Idx: iotaSel(n)}
	return &b.out, nil
}

func (b *batchFromRows) Close() error {
	if b.s != nil {
		putOpScratch(b.s)
		b.s = nil
	}
	b.out = Batch{}
	return b.child.Close()
}

// ---- scan -------------------------------------------------------------------

// batchScan windows the catalog's cached column vectors: zero copies, zero
// per-row work. The table is the run's: Open looks it up in the run's
// database and Close lets go of it and of everything windowing it.
type batchScan struct {
	name  string
	st    *runState
	table *catalog.Table
	cols  []datum.Vec
	idx   []int
	pos   int
	out   Batch
}

func (s *batchScan) Open() error {
	t, err := s.st.cat.Table(s.name)
	if err != nil {
		return err
	}
	s.table, s.cols, s.idx, s.pos = t, t.ColumnData(), t.SeqIdx(), 0
	return nil
}

func (s *batchScan) Next() (*Batch, error) {
	if s.pos >= len(s.idx) {
		return nil, nil
	}
	end := s.pos + batchSize
	if end > len(s.idx) {
		end = len(s.idx)
	}
	// SeqIdx is the identity selection, so the same window of the catalog's
	// row slice is this batch's row view: consumers that materialize rows
	// (runBatch, row adapters) take it as-is instead of slab-copying what the
	// catalog already stores.
	s.out = Batch{Cols: s.cols, Idx: s.idx[s.pos:end], Rows: s.table.Rows[s.pos:end]}
	s.pos = end
	return &s.out, nil
}

func (s *batchScan) Close() error {
	s.table, s.cols, s.idx, s.out = nil, nil, nil, Batch{}
	return nil
}

// ---- filter -----------------------------------------------------------------

// batchFilter shrinks the selection vector in place; the column vectors flow
// through untouched.
type batchFilter struct {
	child BatchIterator
	pred  scalar.Expr
	ve    scalar.VecEval
	s     *opScratch
	out   Batch
}

func (f *batchFilter) Open() error {
	if f.s == nil {
		f.s = getOpScratch()
	}
	return f.child.Open()
}

func (f *batchFilter) Next() (*Batch, error) {
	for {
		b, err := f.child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		sel, err := f.ve.EvalPred(f.pred, b.Cols, b.Idx, f.s.sel)
		if err != nil {
			return nil, err
		}
		f.s.sel = sel
		if len(sel) == 0 {
			continue
		}
		f.out = Batch{Cols: b.Cols, Idx: sel}
		return &f.out, nil
	}
}

func (f *batchFilter) Close() error {
	if f.s != nil {
		putOpScratch(f.s)
		f.s = nil
	}
	f.out = Batch{}
	return f.child.Close()
}

// ---- project ----------------------------------------------------------------

// batchProject evaluates each projection once per batch into reused output
// vectors.
type batchProject struct {
	child BatchIterator
	items []logical.ProjItem
	ve    scalar.VecEval
	s     *opScratch
	out   Batch
}

func (p *batchProject) Open() error {
	if p.s == nil {
		p.s = getOpScratch()
	}
	p.s.vecs = sizeVecs(p.s.vecs, len(p.items))
	return p.child.Open()
}

func (p *batchProject) Next() (*Batch, error) {
	b, err := p.child.Next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		return nil, nil
	}
	vecs := p.s.vecs
	for i, item := range p.items {
		if err := p.ve.Eval(item.E, b.Cols, b.Idx, &vecs[i]); err != nil {
			return nil, err
		}
	}
	p.out = Batch{Cols: vecs, Idx: iotaSel(b.Len())}
	return &p.out, nil
}

func (p *batchProject) Close() error {
	if p.s != nil {
		putOpScratch(p.s)
		p.s = nil
	}
	p.out = Batch{}
	return p.child.Close()
}
