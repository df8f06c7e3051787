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

// run compiles the plan and executes it to completion.
func (c *compiler) run(plan *physical.Expr, maxRows int) ([]datum.Row, error) {
	if !c.batch {
		it, err := c.rowIter(plan)
		if err != nil {
			return nil, err
		}
		return runIter(it, maxRows)
	}
	it, err := c.batchIter(plan)
	if err != nil {
		return nil, err
	}
	return runBatch(it, maxRows)
}

// rowIter compiles plan for a row-at-a-time consumer. A scan stays on the
// zero-copy scanIter even on the batch engine when a row operator consumes
// it directly.
func (c *compiler) rowIter(plan *physical.Expr) (iterator, error) {
	if c.batch && batchNative(plan.Op) && plan.Op != physical.OpScan {
		b, err := c.batchIter(plan)
		if err != nil {
			return nil, err
		}
		return &rowFromBatch{child: b}, nil
	}
	kids := make([]iterator, len(plan.Children))
	for i, k := range plan.Children {
		it, err := c.rowIter(k)
		if err != nil {
			return nil, err
		}
		kids[i] = it
	}
	it, err := rowOp(plan, kids, c.cat)
	if err != nil {
		return nil, err
	}
	if c.tap != nil {
		it = &rowTap{iterator: it, emit: c.tap(plan)}
	}
	return it, nil
}

// batchIter compiles plan for a batch consumer.
func (c *compiler) batchIter(plan *physical.Expr) (BatchIterator, error) {
	if !c.batch || !batchNative(plan.Op) {
		it, err := c.rowIter(plan)
		if err != nil {
			return nil, err
		}
		return &batchFromRows{child: it, width: len(plan.OutputCols())}, nil
	}
	var buf [2]BatchIterator // no columnar operator has more inputs
	kids := buf[:0]
	for _, k := range plan.Children {
		b, err := c.batchIter(k)
		if err != nil {
			return nil, err
		}
		kids = append(kids, b)
	}
	bit, err := batchOp(plan, kids, c.cat)
	if err != nil {
		return nil, err
	}
	if c.tap != nil {
		bit = &batchTap{BatchIterator: bit, emit: c.tap(plan)}
	}
	return bit, nil
}

// rowOp constructs one row operator over compiled inputs.
func rowOp(plan *physical.Expr, kids []iterator, cat *catalog.Catalog) (iterator, error) {
	switch plan.Op {
	case physical.OpScan:
		t, err := cat.Table(plan.Table)
		if err != nil {
			return nil, err
		}
		return &scanIter{table: t}, nil
	case physical.OpFilter:
		return &filterIter{child: kids[0], pred: plan.Filter, env: envOf(plan.Children[0].OutputCols())}, nil
	case physical.OpProject:
		return &projectIter{child: kids[0], items: plan.Projs, env: envOf(plan.Children[0].OutputCols())}, nil
	case physical.OpHashJoin:
		return &hashJoinIter{plan: plan, left: kids[0], right: kids[1]}, nil
	case physical.OpNLJoin:
		return &nlJoinIter{plan: plan, left: kids[0], right: kids[1]}, nil
	case physical.OpMergeJoin:
		if plan.JoinType != physical.JoinInner {
			return nil, fmt.Errorf("exec: merge join supports inner joins only, got %s", plan.JoinType)
		}
		return &mergeJoinIter{plan: plan, left: kids[0], right: kids[1]}, nil
	case physical.OpHashAgg, physical.OpSortAgg:
		return &aggIter{
			child: kids[0], groupCols: plan.GroupCols, aggs: plan.Aggs,
			env: envOf(plan.Children[0].OutputCols()), sorted: plan.Op == physical.OpSortAgg,
		}, nil
	case physical.OpSort:
		return &sortIter{child: kids[0], keys: plan.Keys, env: envOf(plan.Children[0].OutputCols())}, nil
	case physical.OpLimit:
		return &limitIter{child: kids[0], n: plan.N}, nil
	case physical.OpConcat:
		return &concatIter{plan: plan, kids: kids}, nil
	}
	return nil, fmt.Errorf("exec: unsupported physical operator %s", plan.Op)
}

// batchNative reports whether the operator has a columnar implementation,
// i.e. whether batchOp can construct it.
func batchNative(op physical.Op) bool {
	switch op {
	case physical.OpScan, physical.OpFilter, physical.OpProject,
		physical.OpHashJoin, physical.OpHashAgg, physical.OpSortAgg:
		return true
	}
	return false
}

// batchOp constructs one columnar operator over compiled inputs.
func batchOp(plan *physical.Expr, kids []BatchIterator, cat *catalog.Catalog) (BatchIterator, error) {
	switch plan.Op {
	case physical.OpScan:
		t, err := cat.Table(plan.Table)
		if err != nil {
			return nil, err
		}
		return &batchScan{table: t}, nil
	case physical.OpFilter:
		return &batchFilter{
			child: kids[0], pred: plan.Filter,
			ve: scalar.VecEval{Env: envOf(plan.Children[0].OutputCols())},
		}, nil
	case physical.OpProject:
		return &batchProject{
			child: kids[0], items: plan.Projs,
			ve: scalar.VecEval{Env: envOf(plan.Children[0].OutputCols())},
		}, nil
	case physical.OpHashJoin:
		return newBatchHashJoin(plan, kids[0], kids[1]), nil
	case physical.OpHashAgg, physical.OpSortAgg:
		return &batchAgg{
			child: kids[0], groupCols: plan.GroupCols, aggs: plan.Aggs,
			ve:     scalar.VecEval{Env: envOf(plan.Children[0].OutputCols())},
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
