// Package refengine is a deliberately naive reference interpreter for
// logical query trees. It exists to break the oracle circularity of testing
// an optimizer+executor pair against itself: every campaign oracle so far
// compares Plan(q) with Plan(q,¬R) on the same batch executor, so a fault
// shared by the optimizer and the executor is invisible. This
// package evaluates the *logical* tree directly — no optimizer, no physical
// plans, no batching, no memory pooling, no iterator protocol — with the
// simplest implementation of each operator that is obviously correct by
// inspection: full materialization, nested-loop joins, sort-based grouping.
//
// Independence is the point. The package shares only type *definitions*
// with the rest of the system (datum.Datum, catalog.Table, scalar.Expr,
// logical.Expr) and re-implements every piece of evaluation logic locally:
// its own scalar evaluator (scalar.go), its own three-valued logic, its own
// total-order comparator, its own group-equality test, and its own
// aggregate accumulators (agg.go). It must never import internal/exec; the
// conformance suite in internal/exec pins both implementations to the same
// observable semantics from the outside.
//
// Slowness is accepted: joins are O(|left|·|right|), grouping sorts, and
// every operator materializes its full output. The work budget (Limits)
// bounds the damage on pathological inputs the same way the production
// engines' budgets do.
package refengine

import (
	"errors"
	"fmt"
	"sort"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// Limits carries the reference engine's execution budget. MaxRows caps the
// root result size; MaxWork caps the total number of rows materialized by
// all operators together. Zero or negative values mean uncapped. The budget
// *semantics* match the production engines (exceeding either cap is an
// ErrBudget, not a truncated result), but the exact work accounting is not
// byte-comparable across engines — see DESIGN.md §15 for the budget-parity
// contract oracles rely on (any budget trip on any engine ⇒ the comparison
// is skipped, never flipped).
type Limits struct {
	MaxRows int
	MaxWork int64
}

// ErrBudget reports that an evaluation exceeded Limits. Callers bridging to
// the exec package translate it to exec.ErrRowLimit so budget handling is
// engine-independent at every oracle call site.
var ErrBudget = errors.New("refengine: work budget exceeded")

// Eval evaluates a logical query tree against the catalog's in-memory
// tables and returns the full result. Result rows are freshly built or
// aliases of table rows; callers must treat them as read-only, as with the
// production engines.
func Eval(tree *logical.Expr, cat *catalog.Catalog, lim Limits) ([]datum.Row, error) {
	ev := &evaluator{cat: cat, capped: lim.MaxWork > 0, work: lim.MaxWork}
	out, err := ev.eval(tree)
	if err != nil {
		return nil, err
	}
	if lim.MaxRows > 0 && len(out) > lim.MaxRows {
		return nil, ErrBudget
	}
	return out, nil
}

// scope maps column IDs to slots of the row currently in scope. The type is
// local on purpose: the reference engine resolves columns with its own code
// path even though the ID type is shared.
type scope map[scalar.ColumnID]int

func scopeOf(cols []scalar.ColumnID) scope {
	sc := make(scope, len(cols))
	for i, c := range cols {
		sc[c] = i
	}
	return sc
}

type evaluator struct {
	cat    *catalog.Catalog
	capped bool
	work   int64
}

// charge debits rows materialized by one operator against the shared work
// budget, mirroring the production engines' per-operator row accounting.
func (ev *evaluator) charge(n int) error {
	if !ev.capped {
		return nil
	}
	ev.work -= int64(n)
	if ev.work < 0 {
		return ErrBudget
	}
	return nil
}

func (ev *evaluator) eval(e *logical.Expr) ([]datum.Row, error) {
	out, err := ev.evalOp(e)
	if err != nil {
		return nil, err
	}
	if err := ev.charge(len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

func (ev *evaluator) evalOp(e *logical.Expr) ([]datum.Row, error) {
	switch e.Op {
	case logical.OpGet:
		t, err := ev.cat.Table(e.Table)
		if err != nil {
			return nil, err
		}
		return t.Rows, nil

	case logical.OpSelect:
		in, err := ev.eval(e.Children[0])
		if err != nil {
			return nil, err
		}
		sc := scopeOf(e.Children[0].OutputCols())
		var out []datum.Row
		for _, row := range in {
			keep, err := predTrue(e.Filter, row, sc)
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, row)
			}
		}
		return out, nil

	case logical.OpProject:
		in, err := ev.eval(e.Children[0])
		if err != nil {
			return nil, err
		}
		sc := scopeOf(e.Children[0].OutputCols())
		out := make([]datum.Row, 0, len(in))
		for _, row := range in {
			proj := make(datum.Row, len(e.Projs))
			for i, it := range e.Projs {
				d, err := evalScalar(it.E, row, sc)
				if err != nil {
					return nil, err
				}
				proj[i] = d
			}
			out = append(out, proj)
		}
		return out, nil

	case logical.OpJoin, logical.OpLeftJoin, logical.OpSemiJoin, logical.OpAntiJoin:
		return ev.evalJoin(e)

	case logical.OpGroupBy:
		in, err := ev.eval(e.Children[0])
		if err != nil {
			return nil, err
		}
		sc := scopeOf(e.Children[0].OutputCols())
		return groupBy(e, in, sc)

	case logical.OpUnionAll:
		var out []datum.Row
		for i, child := range e.Children {
			in, err := ev.eval(child)
			if err != nil {
				return nil, err
			}
			sc := scopeOf(child.OutputCols())
			slots := make([]int, len(e.OutCols))
			for j := range e.OutCols {
				slot, ok := sc[e.InputCols[i][j]]
				if !ok {
					return nil, fmt.Errorf("refengine: union input column c%d missing from branch %d", e.InputCols[i][j], i)
				}
				slots[j] = slot
			}
			for _, row := range in {
				mapped := make(datum.Row, len(slots))
				for j, slot := range slots {
					mapped[j] = row[slot]
				}
				out = append(out, mapped)
			}
		}
		return out, nil

	case logical.OpLimit:
		in, err := ev.eval(e.Children[0])
		if err != nil {
			return nil, err
		}
		n := e.N
		if n < 0 {
			n = 0
		}
		if int64(len(in)) <= n {
			return in, nil
		}
		return in[:n], nil

	case logical.OpSort:
		in, err := ev.eval(e.Children[0])
		if err != nil {
			return nil, err
		}
		sc := scopeOf(e.Children[0].OutputCols())
		slots := make([]int, len(e.Keys))
		for i, k := range e.Keys {
			slot, ok := sc[k.Col]
			if !ok {
				return nil, fmt.Errorf("refengine: sort key column c%d not in input", k.Col)
			}
			slots[i] = slot
		}
		out := make([]datum.Row, len(in))
		copy(out, in)
		sort.SliceStable(out, func(i, j int) bool {
			for ki, k := range e.Keys {
				c := compareTotal(out[i][slots[ki]], out[j][slots[ki]])
				if c != 0 {
					if k.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		return out, nil
	}
	return nil, fmt.Errorf("refengine: cannot evaluate operator %v", e.Op)
}

// evalJoin is the one join algorithm the reference engine has: materialize
// both sides, test the predicate on every pair. A pair matches only when the
// predicate is TRUE; UNKNOWN and FALSE both reject, so NULL join keys never
// match. LeftJoin pads unmatched left rows with NULLs, SemiJoin emits a left
// row on its first match, AntiJoin emits it when no pair matched.
func (ev *evaluator) evalJoin(e *logical.Expr) ([]datum.Row, error) {
	left, err := ev.eval(e.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := ev.eval(e.Children[1])
	if err != nil {
		return nil, err
	}
	leftCols := e.Children[0].OutputCols()
	rightCols := e.Children[1].OutputCols()
	sc := make(scope, len(leftCols)+len(rightCols))
	for i, c := range leftCols {
		sc[c] = i
	}
	for i, c := range rightCols {
		sc[c] = len(leftCols) + i
	}
	pair := make(datum.Row, len(leftCols)+len(rightCols))
	var out []datum.Row
	for _, l := range left {
		copy(pair, l)
		matched := false
		for _, r := range right {
			copy(pair[len(leftCols):], r)
			ok, err := predTrue(e.On, pair, sc)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			matched = true
			switch e.Op {
			case logical.OpJoin, logical.OpLeftJoin:
				joined := make(datum.Row, len(pair))
				copy(joined, pair)
				out = append(out, joined)
			case logical.OpSemiJoin:
				out = append(out, l)
			}
			if e.Op == logical.OpSemiJoin {
				break
			}
		}
		if !matched && e.Op == logical.OpLeftJoin {
			padded := make(datum.Row, len(leftCols)+len(rightCols))
			copy(padded, l)
			for i := len(leftCols); i < len(padded); i++ {
				padded[i] = datum.Null
			}
			out = append(out, padded)
		}
		if !matched && e.Op == logical.OpAntiJoin {
			out = append(out, l)
		}
	}
	return out, nil
}
