package exec

import (
	"fmt"
	"strings"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/physical"
)

// OpStats records one operator's estimated versus actual cardinality from an
// instrumented execution (EXPLAIN ANALYZE).
type OpStats struct {
	Op       physical.Op
	Detail   string // table name or join type
	EstRows  float64
	ActRows  int64
	Children []*OpStats
}

// QError returns max(est/act, act/est), the standard cardinality-estimation
// quality metric; 1 is perfect. Zero actuals and estimates are floored at 1.
func (s *OpStats) QError() float64 {
	est := s.EstRows
	act := float64(s.ActRows)
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	if est > act {
		return est / act
	}
	return act / est
}

// MaxQError returns the worst Q-error in the subtree.
func (s *OpStats) MaxQError() float64 {
	worst := s.QError()
	for _, c := range s.Children {
		if q := c.MaxQError(); q > worst {
			worst = q
		}
	}
	return worst
}

// String renders the analyze tree like EXPLAIN ANALYZE output.
func (s *OpStats) String() string {
	var sb strings.Builder
	var walk func(x *OpStats, depth int)
	walk = func(x *OpStats, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(x.Op.String())
		if x.Detail != "" {
			fmt.Fprintf(&sb, "(%s)", x.Detail)
		}
		fmt.Fprintf(&sb, "  est=%.0f act=%d q=%.1f\n", x.EstRows, x.ActRows, x.QError())
		for _, c := range x.Children {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return sb.String()
}

// RunAnalyze executes the plan on the batch engine — the engine DB.Query and
// every campaign run — with per-operator row counting, and returns the rows
// plus the analyze tree (estimated versus actual cardinalities).
func RunAnalyze(plan *physical.Expr, cat *catalog.Catalog) ([]datum.Row, *OpStats, error) {
	// pending holds the stats of compiled operators whose parent is still to
	// come; the compiler taps children before parents, so an operator's
	// children are the last len(Children) entries.
	var pending []*OpStats
	c := compiler{cat: cat, batch: true, tap: func(op *physical.Expr) func(rows int) error {
		st := &OpStats{Op: op.Op, EstRows: op.Rows}
		switch op.Op {
		case physical.OpScan:
			st.Detail = op.Table
		case physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin:
			st.Detail = op.JoinType.String()
		}
		kids := len(pending) - len(op.Children)
		st.Children = append(st.Children, pending[kids:]...)
		pending = append(pending[:kids], st)
		return func(rows int) error {
			st.ActRows += int64(rows)
			return nil
		}
	}}
	rows, err := c.run(plan, 0)
	if err != nil {
		return nil, nil, err
	}
	return rows, pending[0], nil
}
