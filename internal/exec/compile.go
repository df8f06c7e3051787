package exec

import (
	"fmt"
	"slices"
	"sync"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
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
// Work accounting is engine-specific. Plans without a Limit drain every
// operator completely under either built-in engine, so their work totals —
// and ErrRowLimit outcomes — are identical. Under a Limit a batch child
// materializes up to batchSize rows where the row engine pulls exactly N:
// batch work is never less than row work, so the batch engine trips whenever
// the row engine does and may trip where it does not (LIMIT 1 over a filter
// over a 5000-row scan at maxWork=100). Oracles treat a trip on either side
// of a comparison as Capped, never as a verdict (DESIGN.md §15).
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
	eng  Engine
	plan *physical.Expr

	mu sync.Mutex
	// idle holds the compiled trees no run holds, linked through next: under
	// [1] those with a tap above every operator, for runs with a budget or a
	// count to keep; under [0] those without, for runs nothing observes.
	idle [2]*tree
}

// tree is one instance of a Program's operator tree, with the state of the
// run it is serving. Exactly one of rows and batches is set.
type tree struct {
	rows    iterator
	batches BatchIterator
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
	return &Program{eng: eng, plan: plan}
}

// Engine and Plan are what the program was compiled from.
func (p *Program) Engine() Engine       { return p.eng }
func (p *Program) Plan() *physical.Expr { return p.plan }

// Run executes the program against cat with RunEngine's caps: scans bind to
// cat's tables as they open, the work budget starts full, and the tree is
// closed whatever the outcome, which leaves it ready for the next run.
func (p *Program) Run(cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	if p.eng == EngineRef { // interprets the plan: nothing to compile
		tree, err := Delower(p.plan)
		if err != nil {
			return nil, err
		}
		return RunTree(EngineRef, tree, cat, maxRows, maxWork)
	}
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
	if t.batches != nil {
		rows, err = runBatch(t.batches, maxRows)
	} else {
		rows, err = runIter(t.rows, maxRows)
	}
	t.runState = runState{}
	p.mu.Lock()
	t.next, p.idle[tapped] = p.idle[tapped], t
	p.mu.Unlock()
	return rows, err
}

// compile builds one operator tree for the program's plan.
func (p *Program) compile(tapped bool) (*tree, error) {
	t := new(tree)
	c := compiler{st: &t.runState, tapped: tapped, size: p.plan.CountOps()}
	var err error
	switch p.eng {
	case EngineBatch:
		t.batches, _, err = c.batchIter(p.plan)
	case EngineRow:
		t.rows, _, err = c.rowIter(p.plan)
	default:
		return nil, fmt.Errorf("exec: unknown engine %v", p.eng)
	}
	return t, err
}

// compiler turns a physical plan into an operator tree: batch operators only
// for EngineBatch, row operators only for EngineRow, and a tap above every
// operator of a tree whose runs are observed. What the two share is
// resolution — layouts, slot maps, key slots — and the shape of a merge join:
// the hash join over a probe side sorted on its keys.
type compiler struct {
	// st is the compiled tree's run state: scans and taps keep the pointer
	// and read through it what each run sets.
	st *runState
	// tapped puts a tap above every operator; a run that neither budgets
	// nor counts takes a tree without, and pays no call per row for it.
	tapped bool
	// size is the plan's operator count and ops the operators compiled so
	// far, which is the next operator's index in tap order. A merge join's
	// sort is not a plan operator and is not tapped. Taps of either kind and
	// layouts come out of one slab each: a plan's set-up allocates per plan,
	// not per operator.
	size, ops int
	rowTaps   []rowTap
	batchTaps []batchTap
	layouts   []layout
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

// rowIter compiles plan to row operators.
func (c *compiler) rowIter(plan *physical.Expr) (iterator, *layout, error) {
	kids := make([]iterator, len(plan.Children))
	ins := make([]*layout, len(plan.Children))
	for i, k := range plan.Children {
		it, in, err := c.rowIter(k)
		if err != nil {
			return nil, nil, err
		}
		kids[i], ins[i] = it, in
	}
	out := c.outputLayout(plan, ins)
	it, err := rowOp(plan, kids, ins, out, c.st)
	if err != nil {
		return nil, nil, err
	}
	if c.tapped {
		it = slabAdd(&c.rowTaps, c.size, rowTap{iterator: it, st: c.st, op: c.ops})
		c.ops++
	}
	return it, out, nil
}

// batchIter compiles plan to batch operators.
func (c *compiler) batchIter(plan *physical.Expr) (BatchIterator, *layout, error) {
	// Two inputs fit on the stack; only a wider concat would spill.
	var kidBuf [2]BatchIterator
	var inBuf [2]*layout
	kids, ins := kidBuf[:0], inBuf[:0]
	for _, k := range plan.Children {
		b, in, err := c.batchIter(k)
		if err != nil {
			return nil, nil, err
		}
		kids, ins = append(kids, b), append(ins, in)
	}
	out := c.outputLayout(plan, ins)
	bit, err := batchOp(plan, kids, ins, out, c.st)
	if err != nil {
		return nil, nil, err
	}
	if c.tapped {
		bit = slabAdd(&c.batchTaps, c.size, batchTap{BatchIterator: bit, st: c.st, op: c.ops})
		c.ops++
	}
	return bit, out, nil
}

// outputLayout resolves the layout plan emits from its inputs' layouts.
func (c *compiler) outputLayout(plan *physical.Expr, ins []*layout) *layout {
	var cols []scalar.ColumnID
	switch plan.Op {
	case physical.OpFilter, physical.OpSort, physical.OpLimit:
		return ins[0]
	case physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin:
		if plan.JoinType == physical.JoinSemi || plan.JoinType == physical.JoinAnti {
			return ins[0]
		}
		l, r := ins[0].cols, ins[1].cols
		cols = append(append(make([]scalar.ColumnID, 0, len(l)+len(r)), l...), r...)
	default:
		// Scan, project, aggregate, concat: the plan node states its own columns.
		cols = plan.OutputCols()
	}
	return slabAdd(&c.layouts, c.size, layout{cols: cols})
}

// joinEnv is the slot map of the combined (left ++ right) row a join
// predicate is evaluated over. Inner and left joins emit that row, so it is
// their output layout's map; semi and anti joins emit the left row only.
func joinEnv(ins []*layout, out *layout) scalar.Env {
	if out != ins[0] {
		return out.env()
	}
	l, r := ins[0].cols, ins[1].cols
	env := make(scalar.Env, len(l)+len(r))
	for i, c := range l {
		env[c] = i
	}
	for i, c := range r {
		env[c] = len(l) + i
	}
	return env
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

// rowOp constructs one row operator over compiled inputs.
func rowOp(plan *physical.Expr, kids []iterator, ins []*layout, out *layout, st *runState) (iterator, error) {
	switch plan.Op {
	case physical.OpScan:
		return &scanIter{name: plan.Table, st: st}, nil
	case physical.OpFilter:
		return &filterIter{child: kids[0], pred: plan.Filter, env: ins[0].env()}, nil
	case physical.OpProject:
		return &projectIter{child: kids[0], items: plan.Projs, env: ins[0].env()}, nil
	case physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin:
		j := &joinIter{rowPair: newRowPair(plan, ins, out), left: kids[0], right: kids[1], hash: plan.Op != physical.OpNLJoin}
		if j.hash {
			var err error
			if j.leftSlots, j.rightSlots, err = joinKeys(plan, ins); err != nil {
				return nil, err
			}
			if plan.Op == physical.OpMergeJoin {
				j.left = &sortIter{child: j.left, keys: ascending(j.leftSlots)}
			}
		}
		return j, nil
	case physical.OpHashAgg, physical.OpSortAgg:
		return &aggIter{
			child: kids[0], groupCols: plan.GroupCols, aggs: plan.Aggs,
			env: ins[0].env(), sorted: plan.Op == physical.OpSortAgg,
		}, nil
	case physical.OpSort:
		keys, err := sortKeys(ins[0], plan.Keys)
		if err != nil {
			return nil, err
		}
		return &sortIter{child: kids[0], keys: keys}, nil
	case physical.OpLimit:
		return &limitIter{child: kids[0], n: plan.N}, nil
	case physical.OpConcat:
		maps, err := concatMaps(plan, ins)
		if err != nil {
			return nil, err
		}
		return &concatIter{kids: kids, maps: maps}, nil
	}
	return nil, fmt.Errorf("exec: unsupported physical operator %s", plan.Op)
}

// batchOp constructs one batch operator over compiled inputs.
func batchOp(plan *physical.Expr, kids []BatchIterator, ins []*layout, out *layout, st *runState) (BatchIterator, error) {
	switch plan.Op {
	case physical.OpScan:
		return &batchScan{name: plan.Table, st: st}, nil
	case physical.OpFilter:
		return &batchFilter{child: kids[0], pred: plan.Filter, ve: scalar.VecEval{Env: ins[0].env()}}, nil
	case physical.OpProject:
		return &batchProject{child: kids[0], items: plan.Projs, ve: scalar.VecEval{Env: ins[0].env()}}, nil
	case physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin:
		return newBatchJoin(plan, kids, ins, out)
	case physical.OpHashAgg, physical.OpSortAgg:
		return &batchAgg{
			child: kids[0], groupCols: plan.GroupCols, aggs: plan.Aggs,
			ve:     scalar.VecEval{Env: ins[0].env()},
			sorted: plan.Op == physical.OpSortAgg,
		}, nil
	case physical.OpSort:
		keys, err := sortKeys(ins[0], plan.Keys)
		if err != nil {
			return nil, err
		}
		return &batchSort{child: kids[0], keys: keys, width: len(ins[0].cols)}, nil
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

// rowTap and batchTap report the rows one operator emits to its run's tap.
type rowTap struct {
	iterator
	st *runState
	op int
}

func (t *rowTap) Next() (datum.Row, error) {
	row, err := t.iterator.Next()
	if row != nil {
		if err := t.st.emit(t.op, 1); err != nil {
			return nil, err
		}
	}
	return row, err
}

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
