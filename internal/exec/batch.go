package exec

import (
	"fmt"
	"slices"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// The batch operators run every plan columnar: operators exchange Batches of
// column vectors instead of single rows, amortizing interpretation overhead.
// Rows are built once, at the root, for the result. A Program fixes the batch
// size of the operators that chunk their output — scans, sorts and
// aggregates: batchSize under EngineBatch, one row under EngineRow. The
// differential tests pin the two to identical results, emission order and
// ANALYZE counts, and to identical budget verdicts on plans without a Limit
// (compile.go states the rest); the reference engine checks both.

const (
	// batchSize is EngineBatch's nominal number of rows per batch. Scans,
	// sorts and aggregates emit at most this many rows per batch; joins may
	// emit up to candidateCap rows when a probe chunk is match-dense.
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

// Batch is a unit of columnar data flow: one vector per output column — empty
// if no consumer reads it — and a selection vector. Row k is (Cols[0].D[Idx[k]],
// Cols[1].D[Idx[k]], …). The vectors may be another operator's or the catalog's
// (DESIGN.md §11); the batch is valid until the producer's next Next call.
type Batch struct {
	Cols []datum.Vec
	Idx  []int
	// Rows, when non-nil, is a ready-made row view of the batch: Rows[k] is
	// row k (the row Idx[k] selects), backed by stable storage that outlives
	// the batch. Scans set it — they window the catalog's row slice — so a
	// result that is a bare scan is returned without gathering; a limit
	// truncates it with Idx. Every other operator constructs a fresh Batch
	// without one, so staleness cannot leak.
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
	// EngineBatch runs the batch operators batchSize rows per batch. The
	// default, and the engine every campaign runs on.
	EngineBatch Engine = iota
	// EngineRow runs the same batch operators one row per batch: scans,
	// sorts and aggregates emit single-row batches. Comparing it with
	// EngineBatch checks that no result depends on the batch size.
	EngineRow
	// EngineRef is the independent reference interpreter
	// (internal/refengine), reached through RunTree. It evaluates logical
	// trees directly and shares no evaluation code with the two engines
	// above, which is what makes it the cross-check backend for both of them.
	EngineRef
)

// String returns the engine name as spelled in reports and benchmarks.
func (e Engine) String() string {
	switch e {
	case EngineRow:
		return "row"
	case EngineBatch:
		return "batch"
	case EngineRef:
		return "ref"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// runBatch opens, drains and closes a batch iterator, gathering result rows;
// maxRows > 0 caps the result size. The first batch's rows become the
// result's own, uncopied. A Close error on an otherwise successful run is a
// real failure and is not swallowed. A failed Open is closed too: the
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
		if rows := gatherRows(b); out == nil && len(rows) > 0 {
			out = rows[:len(rows):len(rows)] // clipped: a scan's rows are its table's
		} else {
			out = append(out, rows...)
		}
	}
}

// gatherRows materializes a batch into rows backed by one shared slab
// allocation, written column-at-a-time: the per-row make() this replaces
// dominated the profile of scan-heavy plans. Batches that carry a row view
// skip even the slab — a bare scan returns the catalog's own rows, uncopied.
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

// ---- scan -------------------------------------------------------------------

// batchScan windows the catalog's cached column vectors, n rows per batch:
// zero copies, zero per-row work. The table is the run's: Open looks it up in
// the run's database and Close lets go of it and of everything windowing it.
type batchScan struct {
	name  string
	n     int
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
	end := min(s.pos+s.n, len(s.idx))
	// SeqIdx is the identity selection, so the same window of the catalog's
	// row slice is this batch's row view: runBatch takes it as-is instead of
	// slab-copying what the catalog already stores.
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

// batchProject evaluates its live items once per batch into reused output
// vectors, a dead item's slot an empty vector; when every live item is a column
// reference, it emits its input's vectors and selection, as a concat does.
type batchProject struct {
	child   BatchIterator
	items   []logical.ProjItem
	live    []int // the items evaluated: those read above, and those that can fail
	aliased bool  // every live item is a column reference in scope
	ve      scalar.VecEval
	s       *opScratch
	out     Batch
}

func (p *batchProject) Open() error {
	if p.s == nil {
		p.s = getOpScratch()
	}
	p.s.vecs = sizeVecs(p.s.vecs, len(p.items))
	p.s.cols = append(p.s.cols[:0], make([]datum.Vec, len(p.items))...)
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
	if p.aliased {
		for _, i := range p.live {
			p.s.cols[i] = b.Cols[p.ve.Env[p.items[i].E.(*scalar.ColRef).ID]]
		}
		p.out = Batch{Cols: p.s.cols, Idx: b.Idx}
		return &p.out, nil
	}
	vecs := p.s.vecs
	for _, i := range p.live {
		if err := p.ve.Eval(p.items[i].E, b.Cols, b.Idx, &vecs[i]); err != nil {
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

// ---- sort -------------------------------------------------------------------

// batchSort drains the live slots of its input into pooled column vectors
// and stable-sorts a permutation of their rows by datum.TotalCompare, so tied
// rows keep their input order. It emits the permutation n rows at a time as
// the selection over those vectors: no row is built and nothing is copied
// out.
type batchSort struct {
	child BatchIterator
	keys  []sortKey
	live  []int // the slots read above the sort, its keys among them
	n     int   // rows per batch

	s   *opScratch // vecs: the drained input; sel: the sorted permutation
	pos int
	out Batch
}

func (s *batchSort) Open() error {
	if s.s == nil {
		s.s = getOpScratch()
	}
	s.pos = 0
	if err := s.child.Open(); err != nil {
		return err
	}
	n := 0
	for {
		b, err := s.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if n == 0 {
			s.s.vecs = sizeVecs(s.s.vecs, len(b.Cols))
		}
		for _, c := range s.live {
			s.s.vecs[c].AppendGather(b.Cols[c].D, b.Idx)
		}
		n += b.Len()
	}
	vecs := s.s.vecs
	perm := s.s.sel[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, i)
	}
	slices.SortStableFunc(perm, func(i, j int) int {
		for _, k := range s.keys {
			d := vecs[k.slot].D
			if c := datum.TotalCompare(d[i], d[j]); c != 0 {
				return k.apply(c)
			}
		}
		return 0
	})
	s.s.sel = perm
	return nil
}

func (s *batchSort) Next() (*Batch, error) {
	perm := s.s.sel
	if s.pos >= len(perm) {
		return nil, nil
	}
	end := min(s.pos+s.n, len(perm))
	s.out = Batch{Cols: s.s.vecs, Idx: perm[s.pos:end]}
	s.pos = end
	return &s.out, nil
}

func (s *batchSort) Close() error {
	if s.s != nil {
		putOpScratch(s.s)
		s.s = nil
	}
	s.pos, s.out = 0, Batch{}
	return s.child.Close()
}

// ---- limit ------------------------------------------------------------------

// batchLimit passes its input through until n rows have gone by, truncating
// the batch that crosses the limit: its selection, and its row view with it.
type batchLimit struct {
	child   BatchIterator
	n, seen int64
	out     Batch
}

func (l *batchLimit) Open() error { l.seen = 0; return l.child.Open() }

func (l *batchLimit) Next() (*Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if rest := l.n - l.seen; int64(b.Len()) > rest {
		l.out = Batch{Cols: b.Cols, Idx: b.Idx[:rest]}
		if b.Rows != nil {
			l.out.Rows = b.Rows[:rest]
		}
		b = &l.out
	}
	l.seen += int64(b.Len())
	return b, nil
}

func (l *batchLimit) Close() error {
	l.out = Batch{}
	return l.child.Close()
}

// ---- concat (UNION ALL) -----------------------------------------------------

// batchConcat emits each child's batches in turn, renamed to its output
// layout by pointing the output columns at the child's vectors through the
// slot map resolved at compile time. It copies nothing.
type batchConcat struct {
	kids []BatchIterator
	maps [][]int     // per child: output position -> child slot
	cols []datum.Vec // the output columns, aliasing the current child's
	cur  int
	out  Batch
}

func (c *batchConcat) Open() error {
	c.cur = 0
	for _, kid := range c.kids {
		if err := kid.Open(); err != nil {
			return err
		}
	}
	return nil
}

func (c *batchConcat) Next() (*Batch, error) {
	for c.cur < len(c.kids) {
		b, err := c.kids[c.cur].Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			c.cur++
			continue
		}
		for j, slot := range c.maps[c.cur] {
			c.cols[j] = b.Cols[slot]
		}
		c.out = Batch{Cols: c.cols, Idx: b.Idx}
		return &c.out, nil
	}
	return nil, nil
}

func (c *batchConcat) Close() error {
	clear(c.cols)
	c.out = Batch{}
	var first error
	for _, k := range c.kids {
		if err := k.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
