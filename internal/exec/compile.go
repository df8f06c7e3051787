package exec

import (
	"fmt"
	"slices"
	"sync"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// RunEngine executes a plan under the chosen engine. It fails with
// ErrRowLimit as soon as the result exceeds maxRows, or the rows produced by
// all operators together — rescans included — exceed maxWork. A root-only cap
// cannot bound a plan whose intermediate results explode while its root stays
// small (a dropped join predicate under an aggregation); the work budget can.
// Zero or negative caps mean uncapped.
//
// Work accounting depends on the batch size. Plans without a Limit drain
// every operator completely under either built-in engine, so their work
// totals — and ErrRowLimit outcomes — are identical. Under a Limit a child
// emits whole batches: a scan, sort or aggregate hands its parent up to
// batchSize rows at a time under EngineBatch and one under EngineRow, so
// EngineBatch's work is never less than EngineRow's. It trips whenever
// EngineRow does and may trip where it does not (LIMIT 1 over a filter over
// a 5000-row scan at maxWork=100). Oracles treat a trip on either side of a
// comparison as Capped, never as a verdict (DESIGN.md §15).
func RunEngine(eng Engine, plan *physical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	return Compile(eng, plan).Run(cat, maxRows, maxWork)
}

// Program is a plan prepared for execution on any number of databases. Its
// operator tree — every layout, slot map, key slot and predicate-column list
// resolved, all a function of the plan alone — is compiled when the first Run
// needs it, so a Program that never runs (a cache hit, a skipped comparison)
// costs nothing but itself. Nothing a run derives from its database outlives
// the run, so a second database costs no compilation and no operator
// allocation. Concurrent Runs are safe: each checks a tree out.
type Program struct {
	eng   Engine
	plan  *physical.Expr
	batch int // rows per batch of scans, sorts and aggregates

	mu sync.Mutex
	// idle holds the compiled trees no run holds, linked through next: under
	// [1] those with a tap above every operator, for runs with a budget or a
	// count to keep; under [0] those without, for runs nothing observes.
	idle [2]*tree
}

// tree is one instance of a Program's operator tree, with the state of the
// run it is serving. An EngineRef program's tree is its plan delowered, which
// the reference engine interprets.
type tree struct {
	batches BatchIterator
	ref     *logical.Expr
	next    *tree
	runState
}

// runState is what a run hands the operators of its tree: the database scans
// bind to in Open, and the tap every operator reports its emitted rows to.
type runState struct {
	cat    *catalog.Catalog
	capped bool
	work   int64 // capped: the rows the plan's operators may still emit
	// acts, when non-nil, counts emitted rows per operator (EXPLAIN ANALYZE),
	// indexed in compile order: children before their parent, left to right.
	acts []int64
}

// emit is the per-operator tap: the work budget charges the rows, ANALYZE
// counts them. Plans execute single-threaded, so plain counters work.
func (st *runState) emit(op, rows int) error {
	if st.acts != nil {
		st.acts[op] += int64(rows)
	}
	if st.capped {
		if st.work -= int64(rows); st.work < 0 {
			return ErrRowLimit
		}
	}
	return nil
}

// Compile returns the Program of plan under the chosen engine. What the
// engine cannot run — an unknown engine, a join key missing from its input,
// an operator without an implementation — is every Run's error, as is a table
// missing from that run's database.
func Compile(eng Engine, plan *physical.Expr) *Program {
	p := &Program{eng: eng, plan: plan, batch: batchSize}
	if eng == EngineRow {
		p.batch = 1
	}
	return p
}

// Engine and Plan are what the program was compiled from.
func (p *Program) Engine() Engine       { return p.eng }
func (p *Program) Plan() *physical.Expr { return p.plan }

// Run executes the program against cat with RunEngine's caps: scans bind to
// cat's tables as they open, the work budget starts full, and the tree is
// closed whatever the outcome, which leaves it ready for the next run. Under
// EngineRef the tree is the plan delowered, once, and RunTree evaluates it.
func (p *Program) Run(cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	return p.run(runState{cat: cat, capped: maxWork > 0, work: maxWork}, maxRows)
}

func (p *Program) run(st runState, maxRows int) (rows []datum.Row, err error) {
	tapped := 0
	if st.capped || st.acts != nil {
		tapped = 1
	}
	p.mu.Lock()
	t := p.idle[tapped]
	if t != nil {
		p.idle[tapped] = t.next
	}
	p.mu.Unlock()
	if t == nil { // the first run of its kind, or every tree is running: compile one
		if t, err = p.compile(tapped == 1); err != nil {
			return nil, err
		}
	}
	t.runState = st
	if t.ref != nil {
		rows, err = RunTree(EngineRef, t.ref, st.cat, maxRows, st.work)
	} else {
		rows, err = runBatch(t.batches, maxRows)
	}
	t.runState = runState{}
	p.mu.Lock()
	t.next, p.idle[tapped] = p.idle[tapped], t
	p.mu.Unlock()
	return rows, err
}

// compile builds one operator tree for the program's plan, or delowers the
// plan for the reference engine.
func (p *Program) compile(tapped bool) (*tree, error) {
	t := new(tree)
	var err error
	if p.eng == EngineRef {
		t.ref, err = delower(p.plan)
		return t, err
	}
	if p.eng != EngineBatch && p.eng != EngineRow {
		return nil, fmt.Errorf("exec: unknown engine %v", p.eng)
	}
	c := compiler{st: &t.runState, tapped: tapped, size: p.plan.CountOps(), batch: p.batch}
	t.batches, _, err = c.batchIter(p.plan, nil)
	return t, err
}

// compiler turns a physical plan into a tree of batch operators, with a tap
// above every operator of a tree whose runs are observed. A merge join
// compiles to the hash join over a probe side sorted on its keys.
type compiler struct {
	// st is the compiled tree's run state: scans and taps keep the pointer
	// and read through it what each run sets.
	st *runState
	// tapped puts a tap above every operator; a run that neither budgets
	// nor counts takes a tree without, and pays no call per row for it.
	tapped bool
	// size is the plan's operator count and ops the operators compiled so
	// far, which is the next operator's index in tap order. A merge join's
	// sort is not a plan operator and is not tapped. Taps, nodes and
	// live-slot lists come out of one slab each: a plan's set-up allocates
	// per plan, not per operator.
	size, ops int
	// batch is the program's rows per batch of scans, sorts and aggregates.
	batch     int
	batchTaps []batchTap
	nodes     []node
	slots     []int
}

// node is what the compiler resolves for one plan operator: the layout it
// emits (or, for a join, reads) and the columns it reads of its inputs.
type node struct {
	out  layout
	kids liveCols
}

// liveCols is the set of columns an operator's consumers read; nil, at the
// root, whose consumer is the result, every column.
type liveCols struct{ cols scalar.ColSet }

func (l *liveCols) has(id scalar.ColumnID) bool { return l == nil || l.cols.Contains(id) }

// readBy sets l to the columns plan reads of its inputs (one set for all)
// when its consumers read need, and returns it, or nil for every column.
// Filter, sort, limit and joins pass need on; a project reads what its live
// items reference, a concat the inputs of the outputs read; and each reads
// its own predicate, key, sort-key, group and argument columns.
func (l *liveCols) readBy(plan *physical.Expr, need *liveCols) *liveCols {
	switch plan.Op {
	case physical.OpFilter, physical.OpSort, physical.OpLimit, physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin:
		if need == nil {
			return nil
		}
		l.cols = scalar.ColSet{}.Union(need.cols) // storage of its own: Add on a copy could write the parent's
	case physical.OpProject:
		for _, it := range plan.Projs {
			if need.has(it.Out) || !errFree(it.E, nil) {
				it.E.Cols(&l.cols)
			}
		}
	case physical.OpConcat:
		for j, out := range plan.OutCols {
			for _, in := range plan.InputCols {
				if need.has(out) && j < len(in) {
					l.cols.Add(in[j])
				}
			}
		}
	}
	// The fields of the other operators are empty.
	for _, e := range []scalar.Expr{plan.Filter, plan.On} {
		if e != nil {
			e.Cols(&l.cols)
		}
	}
	for _, a := range plan.Aggs {
		if a.Arg != nil {
			a.Arg.Cols(&l.cols)
		}
	}
	for _, k := range plan.Keys {
		l.cols.Add(k.Col)
	}
	for _, ids := range [][]scalar.ColumnID{plan.EquiLeft, plan.EquiRight, plan.GroupCols} {
		for _, id := range ids {
			l.cols.Add(id)
		}
	}
	return l
}

// errFree reports a constant, or a column reference in env (any, if nil).
func errFree(e scalar.Expr, env scalar.Env) bool {
	switch t := e.(type) {
	case *scalar.ColRef:
		_, ok := env[t.ID]
		return ok || env == nil
	case *scalar.Const:
		return true
	}
	return false
}

// liveSlots returns the slots of in whose columns need holds.
func (c *compiler) liveSlots(in *layout, need *liveCols) []int {
	return c.where(len(in.cols), func(slot int) bool { return need.has(in.cols[slot]) })
}

// where returns the i < n for which keep holds, ascending: denseIota[:n] when
// that is every one, else a list carved from the compile's slab.
func (c *compiler) where(n int, keep func(int) bool) []int {
	all := true
	for i := 0; all && i < n; i++ {
		all = keep(i)
	}
	if all {
		return denseIota[:n]
	}
	if c.slots == nil {
		c.slots = make([]int, 0, 4*c.size)
	}
	start := len(c.slots)
	for i := 0; i < n; i++ {
		if keep(i) {
			c.slots = append(c.slots, i)
		}
	}
	return c.slots[start:len(c.slots):len(c.slots)]
}

// slabAdd appends v to the slab and returns its address. The slab is made at
// full size on first use, so the addresses handed out stay valid.
func slabAdd[T any](slab *[]T, size int, v T) *T {
	if *slab == nil {
		*slab = make([]T, 0, size)
	}
	*slab = append(*slab, v)
	return &(*slab)[len(*slab)-1]
}

// layout is the ordered column layout an operator emits, resolved once while
// the plan compiles and handed to the operator's parent: no operator derives
// a layout in Open or Next. Operators that pass their input's columns through
// (filter, sort, limit, semi and anti joins) share the input's layout, so the
// slot map is built at most once per distinct layout however many operators
// evaluate expressions over it.
type layout struct {
	cols  []scalar.ColumnID
	slots scalar.Env // nil until env is first asked
}

func (l *layout) env() scalar.Env {
	if l.slots == nil {
		l.slots = envOf(l.cols)
	}
	return l.slots
}

// batchIter compiles plan to batch operators whose consumers read need of
// the columns plan emits.
func (c *compiler) batchIter(plan *physical.Expr, need *liveCols) (BatchIterator, *layout, error) {
	n := slabAdd(&c.nodes, c.size, node{})
	read := n.kids.readBy(plan, need)
	// Two inputs fit on the stack; only a wider concat would spill.
	var kidBuf [2]BatchIterator
	var inBuf [2]*layout
	kids, ins := kidBuf[:0], inBuf[:0]
	for _, k := range plan.Children {
		b, in, err := c.batchIter(k, read)
		if err != nil {
			return nil, nil, err
		}
		kids, ins = append(kids, b), append(ins, in)
	}
	out := outputLayout(plan, ins, n)
	bit, err := c.batchOp(plan, kids, ins, &n.out, need, read)
	if err != nil {
		return nil, nil, err
	}
	if c.tapped {
		bit = slabAdd(&c.batchTaps, c.size, batchTap{BatchIterator: bit, st: c.st, op: c.ops})
		c.ops++
	}
	return bit, out, nil
}

// outputLayout resolves the layout plan emits: its node's, or its input's
// when it passes that through. A join's node holds the combined (left ++
// right) row its predicate reads, which semi and anti joins do not emit.
func outputLayout(plan *physical.Expr, ins []*layout, n *node) *layout {
	switch plan.Op {
	case physical.OpFilter, physical.OpSort, physical.OpLimit:
		return ins[0]
	case physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin:
		l, r := ins[0].cols, ins[1].cols
		n.out.cols = append(append(make([]scalar.ColumnID, 0, len(l)+len(r)), l...), r...)
		if plan.JoinType == physical.JoinSemi || plan.JoinType == physical.JoinAnti {
			return ins[0]
		}
	default:
		// Scan, project, aggregate, concat: the plan node states its own columns.
		n.out.cols = plan.OutputCols()
	}
	return &n.out
}

// keySlots resolves equi-key columns to input row slots. A key column
// missing from its input is a plan-construction bug and must surface as an
// error rather than silently probing slot 0.
func keySlots(in *layout, cols []scalar.ColumnID, join, side string) ([]int, error) {
	env := in.env()
	slots := make([]int, len(cols))
	for i, c := range cols {
		s, ok := env[c]
		if !ok {
			return nil, fmt.Errorf("exec: %s join key column c%d not in %s input", join, c, side)
		}
		slots[i] = s
	}
	return slots, nil
}

// joinKeys resolves a hash or merge join's equi-key slots. A merge join is
// the hash join over a probe side stably sorted on its keys — key groups in
// key order, each left row's passing matches in build order, NULL keys
// dropped, which is what merging two sorted inputs emits — so it is inner
// only, like the merge it stands for.
func joinKeys(plan *physical.Expr, ins []*layout) (left, right []int, err error) {
	name := "hash"
	if plan.Op == physical.OpMergeJoin {
		if plan.JoinType != physical.JoinInner {
			return nil, nil, fmt.Errorf("exec: merge join supports inner joins only, got %s", plan.JoinType)
		}
		name = "merge"
	}
	if left, err = keySlots(ins[0], plan.EquiLeft, name, "left"); err != nil {
		return nil, nil, err
	}
	if right, err = keySlots(ins[1], plan.EquiRight, name, "right"); err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// batchOp constructs one batch operator over compiled inputs, a join over rows
// of layout joined. Operators copy only the columns read above or by them.
func (c *compiler) batchOp(plan *physical.Expr, kids []BatchIterator, ins []*layout, joined *layout, need, read *liveCols) (BatchIterator, error) {
	switch plan.Op {
	case physical.OpScan:
		return &batchScan{name: plan.Table, n: c.batch, st: c.st}, nil
	case physical.OpFilter:
		return &batchFilter{child: kids[0], pred: plan.Filter, ve: scalar.VecEval{Env: ins[0].env()}}, nil
	case physical.OpProject:
		// Items read above or able to fail are live; columns in scope alias.
		env := ins[0].env()
		p := &batchProject{child: kids[0], items: plan.Projs, ve: scalar.VecEval{Env: env}, aliased: true}
		p.live = c.where(len(p.items), func(i int) bool { return need.has(p.items[i].Out) || !errFree(p.items[i].E, env) })
		for _, i := range p.live {
			_, ref := p.items[i].E.(*scalar.ColRef)
			p.aliased = p.aliased && ref && errFree(p.items[i].E, env)
		}
		return p, nil
	case physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin:
		return c.newBatchJoin(plan, kids, ins, joined, need, read)
	case physical.OpHashAgg, physical.OpSortAgg:
		return &batchAgg{
			child: kids[0], groupCols: plan.GroupCols, aggs: plan.Aggs,
			ve:     scalar.VecEval{Env: ins[0].env()},
			sorted: plan.Op == physical.OpSortAgg, n: c.batch,
		}, nil
	case physical.OpSort:
		keys, err := sortKeys(ins[0], plan.Keys)
		if err != nil {
			return nil, err
		}
		return &batchSort{child: kids[0], keys: keys, live: c.liveSlots(ins[0], read), n: c.batch}, nil
	case physical.OpLimit:
		return &batchLimit{child: kids[0], n: plan.N}, nil
	case physical.OpConcat:
		maps, err := concatMaps(plan, ins)
		if err != nil {
			return nil, err
		}
		return &batchConcat{kids: slices.Clone(kids), maps: maps, cols: make([]datum.Vec, len(plan.OutCols))}, nil
	}
	return nil, fmt.Errorf("exec: unsupported physical operator %s", plan.Op)
}

// batchTap reports the rows one operator emits to its run's tap.
type batchTap struct {
	BatchIterator
	st *runState
	op int
}

func (t *batchTap) Next() (*Batch, error) {
	b, err := t.BatchIterator.Next()
	if b != nil {
		if err := t.st.emit(t.op, len(b.Idx)); err != nil {
			return nil, err
		}
	}
	return b, err
}
