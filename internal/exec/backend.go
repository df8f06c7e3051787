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

// RunTree evaluates a logical query tree on the reference engine
// (internal/refengine) with RunEngine's budget semantics; its budget trip
// surfaces as ErrRowLimit. The reference engine shares no compiler and no
// scalar kernel with the batch operators, so the cross-check it runs
// cannot replay their faults. An EngineRef Program runs its plan here,
// delowered; the built-in engines reject a tree.
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

// opPairs is the one correspondence between logical operators and the
// physical operators that implement them. Lower emits the first physical
// operator of a logical operator's row, its canonical implementation;
// delower maps every physical operator of a row back to the row's logical
// operator. A join row also fixes the join type.
var opPairs = []struct {
	log  logical.Op
	phys []physical.Op
	join physical.JoinType
}{
	{logical.OpGet, []physical.Op{physical.OpScan}, 0},
	{logical.OpSelect, []physical.Op{physical.OpFilter}, 0},
	{logical.OpProject, []physical.Op{physical.OpProject}, 0},
	{logical.OpJoin, joinOps, physical.JoinInner},
	{logical.OpLeftJoin, joinOps, physical.JoinLeft},
	{logical.OpSemiJoin, joinOps, physical.JoinSemi},
	{logical.OpAntiJoin, joinOps, physical.JoinAnti},
	{logical.OpGroupBy, []physical.Op{physical.OpHashAgg, physical.OpSortAgg}, 0},
	{logical.OpUnionAll, []physical.Op{physical.OpConcat}, 0},
	{logical.OpSort, []physical.Op{physical.OpSort}, 0},
	{logical.OpLimit, []physical.Op{physical.OpLimit}, 0},
}

var joinOps = []physical.Op{physical.OpNLJoin, physical.OpHashJoin, physical.OpMergeJoin}

// Lower translates a logical tree into its canonical physical form: one
// fixed, rule-independent implementation per logical operator (scans,
// filters, nested-loop joins, hash aggregation, concatenation). Operator
// payloads carry over as they are; each operator reads only its own. The
// verifier lowers both sides of an exploration rewrite this way, so the only
// semantic difference between the compared plans is the rewrite itself, and
// the reference-engine cross-check runs a query's lowered tree. Lower panics
// on an operator without an implementation, the pattern placeholder OpAny,
// which no query tree holds.
func Lower(e *logical.Expr) *physical.Expr {
	kids := make([]*physical.Expr, len(e.Children))
	for i, c := range e.Children {
		kids[i] = Lower(c)
	}
	for _, p := range opPairs {
		if p.log == e.Op {
			return &physical.Expr{
				Op: p.phys[0], JoinType: p.join, Children: kids,
				Table: e.Table, Cols: e.Cols, Filter: e.Filter, On: e.On, Projs: e.Projs,
				GroupCols: e.GroupCols, Aggs: e.Aggs, OutCols: e.OutCols, InputCols: e.InputCols,
				N: e.N, Keys: e.Keys,
			}
		}
	}
	panic(fmt.Sprintf("exec: cannot lower logical operator %v", e.Op))
}

// delower translates a physical plan back to the logical tree it
// implements, the inverse of Lower: every physical join algorithm collapses
// to its logical join (On carries the full predicate, so dropping
// EquiLeft/EquiRight loses nothing), both aggregate implementations collapse
// to GroupBy, and the remaining operators map one-to-one. This is how the
// reference engine executes "the same plan" a built-in engine ran: same
// semantics, none of the physical machinery.
func delower(plan *physical.Expr) (*logical.Expr, error) {
	kids := make([]*logical.Expr, len(plan.Children))
	for i, c := range plan.Children {
		k, err := delower(c)
		if err != nil {
			return nil, err
		}
		kids[i] = k
	}
	for _, p := range opPairs {
		if slices.Contains(p.phys, plan.Op) && (!p.log.IsJoin() || p.join == plan.JoinType) {
			return &logical.Expr{
				Op: p.log, Children: kids,
				Table: plan.Table, Cols: plan.Cols, Filter: plan.Filter, On: plan.On, Projs: plan.Projs,
				GroupCols: plan.GroupCols, Aggs: plan.Aggs, OutCols: plan.OutCols, InputCols: plan.InputCols,
				N: plan.N, Keys: plan.Keys,
			}, nil
		}
	}
	return nil, fmt.Errorf("exec: cannot delower physical operator %v", plan.Op)
}
