package exec

import (
	"errors"
	"fmt"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/refengine"
)

// RunTree evaluates a logical query tree on the reference engine
// (internal/refengine) with RunEngine's budget semantics; its budget trip
// surfaces as ErrRowLimit. The reference engine shares no compiler and no
// scalar kernel with the batch operators, so the cross-check it runs
// cannot replay their faults. The built-in engines reject a tree: they would
// have to lower it through the same code the oracle is trying to check.
func RunTree(eng Engine, tree *logical.Expr, cat *catalog.Catalog, maxRows int, maxWork int64) ([]datum.Row, error) {
	if eng != EngineRef {
		return nil, fmt.Errorf("exec: engine %v cannot evaluate logical trees directly", eng)
	}
	rows, err := refengine.Eval(tree, cat, refengine.Limits{MaxRows: maxRows, MaxWork: maxWork})
	if errors.Is(err, refengine.ErrBudget) {
		return nil, ErrRowLimit
	}
	return rows, err
}

// Delower translates a physical plan back to the logical tree it
// implements: the inverse of canonical lowering. Every physical join
// algorithm collapses to its logical join (On carries the full predicate,
// so dropping EquiLeft/EquiRight loses nothing), both aggregate
// implementations collapse to GroupBy, and the remaining operators map
// one-to-one. This is how the reference engine executes "the same plan" a
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
