package exec

import (
	"fmt"

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
	if b := backendFor(eng); b != nil {
		return b.RunPlan(plan, cat, maxRows, maxWork)
	}
	if eng != EngineRow && eng != EngineBatch {
		return nil, fmt.Errorf("exec: unknown engine %v", eng)
	}
	c := compiler{cat: cat, batch: eng == EngineBatch}
	if maxWork > 0 {
		c.tap = workBudget(maxWork)
	}
	return c.run(plan, maxRows)
}

// compiler turns a physical plan into an operator tree. The engine decides
// one thing only — whether operators with a columnar implementation compile
// to it. The rest is shared: row operators for everything else, an adapter
// wherever a row operator meets a batch one, a tap above every operator.
type compiler struct {
	cat *catalog.Catalog
	// batch is EngineBatch: batchNative operators compile columnar. Unset,
	// every operator compiles row-at-a-time (EngineRow).
	batch bool
	// tap, when non-nil, is called once per operator — children before
	// their parent, left to right — and returns the observer of the rows
	// that operator emits. Adapters are not operators and are not tapped.
	tap func(op *physical.Expr) func(rows int) error
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

// run compiles the plan and executes it to completion.
func (c *compiler) run(plan *physical.Expr, maxRows int) ([]datum.Row, error) {
	if !c.batch {
		it, _, err := c.rowIter(plan)
		if err != nil {
			return nil, err
		}
		return runIter(it, maxRows)
	}
	it, _, err := c.batchIter(plan)
	if err != nil {
		return nil, err
	}
	return runBatch(it, maxRows)
}

// rowIter compiles plan for a row-at-a-time consumer. A scan stays on the
// zero-copy scanIter even on the batch engine when a row operator consumes
// it directly.
func (c *compiler) rowIter(plan *physical.Expr) (iterator, *layout, error) {
	if c.batch && batchNative(plan.Op) && plan.Op != physical.OpScan {
		b, out, err := c.batchIter(plan)
		if err != nil {
			return nil, nil, err
		}
		return &rowFromBatch{child: b}, out, nil
	}
	kids := make([]iterator, len(plan.Children))
	ins := make([]*layout, len(plan.Children))
	for i, k := range plan.Children {
		it, in, err := c.rowIter(k)
		if err != nil {
			return nil, nil, err
		}
		kids[i], ins[i] = it, in
	}
	out := outputLayout(plan, ins)
	it, err := rowOp(plan, kids, ins, out, c.cat)
	if err != nil {
		return nil, nil, err
	}
	if c.tap != nil {
		it = &rowTap{iterator: it, emit: c.tap(plan)}
	}
	return it, out, nil
}

// batchIter compiles plan for a batch consumer.
func (c *compiler) batchIter(plan *physical.Expr) (BatchIterator, *layout, error) {
	if !c.batch || !batchNative(plan.Op) {
		it, out, err := c.rowIter(plan)
		if err != nil {
			return nil, nil, err
		}
		return &batchFromRows{child: it, width: len(out.cols)}, out, nil
	}
	// No columnar operator has more than two inputs.
	var kids [2]BatchIterator
	var ins [2]*layout
	for i, k := range plan.Children {
		b, in, err := c.batchIter(k)
		if err != nil {
			return nil, nil, err
		}
		kids[i], ins[i] = b, in
	}
	out := outputLayout(plan, ins[:len(plan.Children)])
	bit, err := batchOp(plan, kids, ins, out, c.cat)
	if err != nil {
		return nil, nil, err
	}
	if c.tap != nil {
		bit = &batchTap{BatchIterator: bit, emit: c.tap(plan)}
	}
	return bit, out, nil
}

// outputLayout resolves the layout plan emits from its inputs' layouts.
func outputLayout(plan *physical.Expr, ins []*layout) *layout {
	switch plan.Op {
	case physical.OpFilter, physical.OpSort, physical.OpLimit:
		return ins[0]
	case physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin:
		if plan.JoinType == physical.JoinSemi || plan.JoinType == physical.JoinAnti {
			return ins[0]
		}
		l, r := ins[0].cols, ins[1].cols
		cols := make([]scalar.ColumnID, 0, len(l)+len(r))
		return &layout{cols: append(append(cols, l...), r...)}
	}
	// Scan, project, aggregate, concat: the plan node states its own columns.
	return &layout{cols: plan.OutputCols()}
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

// rowOp constructs one row operator over compiled inputs.
func rowOp(plan *physical.Expr, kids []iterator, ins []*layout, out *layout, cat *catalog.Catalog) (iterator, error) {
	switch plan.Op {
	case physical.OpScan:
		t, err := cat.Table(plan.Table)
		if err != nil {
			return nil, err
		}
		return &scanIter{table: t}, nil
	case physical.OpFilter:
		return &filterIter{child: kids[0], pred: plan.Filter, env: ins[0].env()}, nil
	case physical.OpProject:
		return &projectIter{child: kids[0], items: plan.Projs, env: ins[0].env()}, nil
	case physical.OpHashJoin, physical.OpMergeJoin:
		name := "hash"
		if plan.Op == physical.OpMergeJoin {
			if plan.JoinType != physical.JoinInner {
				return nil, fmt.Errorf("exec: merge join supports inner joins only, got %s", plan.JoinType)
			}
			name = "merge"
		}
		ls, err := keySlots(ins[0], plan.EquiLeft, name, "left")
		if err != nil {
			return nil, err
		}
		rs, err := keySlots(ins[1], plan.EquiRight, name, "right")
		if err != nil {
			return nil, err
		}
		pair := newRowPair(plan, ins, out)
		if plan.Op == physical.OpMergeJoin {
			return &mergeJoinIter{rowPair: pair, left: kids[0], right: kids[1], leftSlots: ls, rightSlots: rs}, nil
		}
		return &hashJoinIter{rowPair: pair, left: kids[0], right: kids[1], leftSlots: ls, rightSlots: rs}, nil
	case physical.OpNLJoin:
		return &nlJoinIter{rowPair: newRowPair(plan, ins, out), left: kids[0], right: kids[1]}, nil
	case physical.OpHashAgg, physical.OpSortAgg:
		return &aggIter{
			child: kids[0], groupCols: plan.GroupCols, aggs: plan.Aggs,
			env: ins[0].env(), sorted: plan.Op == physical.OpSortAgg,
		}, nil
	case physical.OpSort:
		return &sortIter{child: kids[0], keys: plan.Keys, env: ins[0].env()}, nil
	case physical.OpLimit:
		return &limitIter{child: kids[0], n: plan.N}, nil
	case physical.OpConcat:
		return newConcatIter(plan, kids, ins)
	}
	return nil, fmt.Errorf("exec: unsupported physical operator %s", plan.Op)
}

// batchNative reports whether the operator has a columnar implementation,
// i.e. whether batchOp can construct it.
func batchNative(op physical.Op) bool {
	switch op {
	case physical.OpScan, physical.OpFilter, physical.OpProject,
		physical.OpHashJoin, physical.OpNLJoin, physical.OpHashAgg, physical.OpSortAgg:
		return true
	}
	return false
}

// batchOp constructs one columnar operator over compiled inputs.
func batchOp(plan *physical.Expr, kids [2]BatchIterator, ins [2]*layout, out *layout, cat *catalog.Catalog) (BatchIterator, error) {
	switch plan.Op {
	case physical.OpScan:
		t, err := cat.Table(plan.Table)
		if err != nil {
			return nil, err
		}
		return &batchScan{table: t}, nil
	case physical.OpFilter:
		return &batchFilter{child: kids[0], pred: plan.Filter, ve: scalar.VecEval{Env: ins[0].env()}}, nil
	case physical.OpProject:
		return &batchProject{child: kids[0], items: plan.Projs, ve: scalar.VecEval{Env: ins[0].env()}}, nil
	case physical.OpHashJoin, physical.OpNLJoin:
		return newBatchJoin(plan, kids, ins, out)
	case physical.OpHashAgg, physical.OpSortAgg:
		return &batchAgg{
			child: kids[0], groupCols: plan.GroupCols, aggs: plan.Aggs,
			ve:     scalar.VecEval{Env: ins[0].env()},
			sorted: plan.Op == physical.OpSortAgg,
		}, nil
	}
	return nil, fmt.Errorf("exec: no columnar implementation of %s", plan.Op)
}

// workBudget is the tap that charges every operator's rows against one
// budget shared by the whole plan. Plans execute single-threaded, so a plain
// counter works.
func workBudget(maxWork int64) func(*physical.Expr) func(rows int) error {
	charge := func(rows int) error {
		maxWork -= int64(rows)
		if maxWork < 0 {
			return ErrRowLimit
		}
		return nil
	}
	return func(*physical.Expr) func(rows int) error { return charge }
}

// rowTap and batchTap report the rows one operator emits to its observer:
// the work budget charges them, EXPLAIN ANALYZE counts them.
type rowTap struct {
	iterator
	emit func(rows int) error
}

func (t *rowTap) Next() (datum.Row, error) {
	row, err := t.iterator.Next()
	if row != nil {
		if err := t.emit(1); err != nil {
			return nil, err
		}
	}
	return row, err
}

type batchTap struct {
	BatchIterator
	emit func(rows int) error
}

func (t *batchTap) Next() (*Batch, error) {
	b, err := t.BatchIterator.Next()
	if b != nil {
		if err := t.emit(len(b.Idx)); err != nil {
			return nil, err
		}
	}
	return b, err
}
