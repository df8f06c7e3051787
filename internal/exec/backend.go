package exec

import (
	"errors"
	"fmt"
	"slices"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/refengine"
)

// A Backend is an execution engine that lives outside the in-process
// row/batch iterator machinery. The two built-in engines (EngineRow,
// EngineBatch) share one physical-plan compiler and one scalar evaluator;
// a Backend deliberately does not, so comparing its results against theirs
// breaks the self-differential circularity of the campaign oracles.
//
// The contract every Backend must honor:
//
//   - RunTree evaluates the *logical* query tree — the pre-optimizer form —
//     so an optimizer fault cannot be faithfully replayed into the
//     cross-check. RunPlan evaluates a physical plan by translating it back
//     to its logical form (Delower); oracles use it when the backend should
//     re-execute exactly what a built-in engine ran.
//   - Budgets: exceeding maxRows or maxWork must surface as ErrRowLimit.
//     Work accounting is backend-specific, so oracles treat a budget trip on
//     either side as Capped and skip the comparison (DESIGN.md §15) — caps
//     bound cost, they never flip a verdict.
//   - Results are compared under CompareResults with the normalization
//     contract (multiset comparison unless both sides are sorted, NULLs
//     first in the total order, numeric kinds widened per
//     datum.TotalCompare). A backend needs no particular output order.
//   - Registration requires passing the cross-engine conformance suite
//     (conformance_test.go), which pins 3VL, NULL grouping/joins,
//     empty-input aggregates, LIMIT and sort stability across all engines.
//
// An out-of-process engine slots in behind this same interface: a SQLite
// backend, for example, would implement RunTree by rendering the tree to a
// SELECT via the sql package's formatter, shipping it over database/sql,
// and mapping result values back to datums — no oracle call site changes,
// only a RegisterBackend call (see DESIGN.md §15 for the seam).
type Backend interface {
	// Engine returns the backend's engine ID (distinct from EngineRow and
	// EngineBatch).
	Engine() Engine
	// Name returns the engine name as spelled in reports, cache keys and
	// the -backend CLI flag.
	Name() string
	// RunPlan evaluates a physical plan under the backend's semantics.
	RunPlan(plan *physical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error)
	// RunTree evaluates a logical query tree directly.
	RunTree(tree *logical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error)
}

// backends holds registered backends in registration order — a slice, not a
// map, so enumeration order is deterministic.
var backends []Backend

// RegisterBackend makes a backend available to RunEngine, RunTree and
// EngineByName. It is meant to be called from package init; duplicate
// engine IDs or names, and attempts to shadow the built-in engines, panic.
func RegisterBackend(b Backend) {
	if b.Engine() == EngineRow || b.Engine() == EngineBatch {
		panic(fmt.Sprintf("exec: backend %q cannot use built-in engine id %d", b.Name(), b.Engine()))
	}
	if b.Name() == "row" || b.Name() == "batch" {
		panic(fmt.Sprintf("exec: backend name %q shadows a built-in engine", b.Name()))
	}
	for _, have := range backends {
		if have.Engine() == b.Engine() || have.Name() == b.Name() {
			panic(fmt.Sprintf("exec: backend %q/%d already registered", b.Name(), b.Engine()))
		}
	}
	backends = append(backends, b)
}

// backendFor returns the registered backend for an engine, or nil for the
// built-in engines and unknown IDs.
func backendFor(e Engine) Backend {
	for _, b := range backends {
		if b.Engine() == e {
			return b
		}
	}
	return nil
}

// HasTreeBackend reports whether the engine can evaluate logical trees
// directly via RunTree. The built-in engines cannot: they only execute
// physical plans.
func HasTreeBackend(e Engine) bool { return backendFor(e) != nil }

// Engines returns every available engine — the built-ins followed by
// registered backends in registration order. The conformance suite runs
// each of them over the same corpus.
func Engines() []Engine {
	out := []Engine{EngineRow, EngineBatch}
	for _, b := range backends {
		out = append(out, b.Engine())
	}
	return out
}

// EngineByName resolves an engine name as spelled in reports and the
// -backend CLI flag.
func EngineByName(name string) (Engine, error) {
	switch name {
	case "row":
		return EngineRow, nil
	case "batch":
		return EngineBatch, nil
	}
	for _, b := range backends {
		if b.Name() == name {
			return b.Engine(), nil
		}
	}
	names := "row, batch"
	for _, b := range backends {
		names += ", " + b.Name()
	}
	return 0, fmt.Errorf("exec: unknown engine %q (have %s)", name, names)
}

// RunTree evaluates a logical query tree on a tree-capable backend with
// RunEngine's budget semantics. The built-in engines reject it: they would
// have to lower the tree through the same code the oracle is trying to
// check.
func RunTree(eng Engine, tree *logical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	b := backendFor(eng)
	if b == nil {
		return nil, fmt.Errorf("exec: engine %v cannot evaluate logical trees directly", eng)
	}
	return b.RunTree(tree, cat, maxRows, maxWork)
}

// Delower translates a physical plan back to the logical tree it
// implements: the inverse of canonical lowering. Every physical join
// algorithm collapses to its logical join (On carries the full predicate,
// so dropping EquiLeft/EquiRight loses nothing), both aggregate
// implementations collapse to GroupBy, and the remaining operators map
// one-to-one. This is how a tree-only backend executes "the same plan" a
// built-in engine ran: same semantics, none of the physical machinery.
func Delower(plan *physical.Expr) (*logical.Expr, error) {
	kids := make([]*logical.Expr, len(plan.Children))
	for i, c := range plan.Children {
		k, err := Delower(c)
		if err != nil {
			return nil, err
		}
		kids[i] = k
	}
	out := &logical.Expr{Children: kids}
	switch plan.Op {
	case physical.OpScan:
		out.Op = logical.OpGet
		out.Table = plan.Table
		out.Cols = plan.Cols
	case physical.OpFilter:
		out.Op = logical.OpSelect
		out.Filter = plan.Filter
	case physical.OpProject:
		out.Op = logical.OpProject
		out.Projs = plan.Projs
	case physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin:
		switch plan.JoinType {
		case physical.JoinLeft:
			out.Op = logical.OpLeftJoin
		case physical.JoinSemi:
			out.Op = logical.OpSemiJoin
		case physical.JoinAnti:
			out.Op = logical.OpAntiJoin
		default:
			out.Op = logical.OpJoin
		}
		out.On = plan.On
	case physical.OpHashAgg, physical.OpSortAgg:
		out.Op = logical.OpGroupBy
		out.GroupCols = plan.GroupCols
		out.Aggs = plan.Aggs
	case physical.OpConcat:
		out.Op = logical.OpUnionAll
		out.OutCols = plan.OutCols
		out.InputCols = plan.InputCols
	case physical.OpSort:
		out.Op = logical.OpSort
		out.Keys = plan.Keys
	case physical.OpLimit:
		out.Op = logical.OpLimit
		out.N = plan.N
	default:
		return nil, fmt.Errorf("exec: cannot delower physical operator %v", plan.Op)
	}
	return out, nil
}

// TreeOrder computes the ordering contract of a logical tree's output, the
// counterpart of RootOrder for plans: whether a Sort survives to the root
// through order-preserving operators (Limit, Select, Project), which output
// slots carry its keys, and where Limits sit relative to it. Cross-engine
// comparisons pass the built-in engine's RootOrder and the tree backend's
// TreeOrder to CompareResults, which then applies the shared normalization
// (positional comparison only when both sides are ordered).
func TreeOrder(tree *logical.Expr) PlanOrder {
	o := PlanOrder{HasLimit: treeHasLimit(tree)}
	var projs [][]logical.ProjItem
	cur := tree
walk:
	for {
		switch cur.Op {
		case logical.OpLimit, logical.OpSelect:
			cur = cur.Children[0]
		case logical.OpProject:
			projs = append(projs, cur.Projs)
			cur = cur.Children[0]
		case logical.OpSort:
			slots := envOf(tree.OutputCols())
			for i, k := range cur.Keys {
				col, ok := liftCol(k.Col, projs)
				if !ok {
					break
				}
				slot, ok := slots[col]
				if !ok {
					break
				}
				o.Slots = append(o.Slots, slot)
				o.Descs = append(o.Descs, cur.Keys[i].Desc)
			}
			o.Sorted = len(o.Slots) > 0
			if o.Sorted {
				o.LimitBelowSort = treeHasLimit(cur.Children[0])
			}
			break walk
		default:
			break walk
		}
	}
	return o
}

func treeHasLimit(e *logical.Expr) bool {
	if e.Op == logical.OpLimit {
		return true
	}
	for _, c := range e.Children {
		if treeHasLimit(c) {
			return true
		}
	}
	return false
}

// NormalizeRows returns a copy of rows sorted by the oracle's order on rows
// (rowCmp), equal rows in their input order: the canonical multiset form. Two
// results are equal multisets iff their normalized forms are positionally
// equal under that order — the equivalence EqualMultisets computes, exposed
// here for tests and tools that want a canonical listing.
func NormalizeRows(rows []datum.Row) []datum.Row {
	out := slices.Clone(rows)
	slices.SortStableFunc(out, rowCmp)
	return out
}

// refBackend adapts the reference engine (internal/refengine) to the
// Backend interface, translating its budget sentinel to ErrRowLimit. It is
// the first — and so far only — registered backend; RunEngine dispatches
// EngineRef here.
type refBackend struct{}

func (refBackend) Engine() Engine { return EngineRef }
func (refBackend) Name() string   { return "ref" }

func (refBackend) RunTree(tree *logical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	rows, err := refengine.Eval(tree, cat, refengine.Limits{MaxRows: maxRows, MaxWork: maxWork})
	if errors.Is(err, refengine.ErrBudget) {
		return nil, ErrRowLimit
	}
	return rows, err
}

func (b refBackend) RunPlan(plan *physical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	tree, err := Delower(plan)
	if err != nil {
		return nil, err
	}
	return b.RunTree(tree, cat, maxRows, maxWork)
}

func init() {
	RegisterBackend(refBackend{})
}
