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
	acts := make([]int64, plan.CountOps())
	rows, err := Compile(EngineBatch, plan).run(runState{cat: cat, acts: acts}, 0)
	if err != nil {
		return nil, nil, err
	}
	// The run counted in compile order, which is the plan's post-order.
	var stats func(op *physical.Expr) *OpStats
	stats = func(op *physical.Expr) *OpStats {
		st := &OpStats{Op: op.Op, EstRows: op.Rows}
		switch op.Op {
		case physical.OpScan:
			st.Detail = op.Table
		case physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin:
			st.Detail = op.JoinType.String()
		}
		for _, k := range op.Children {
			st.Children = append(st.Children, stats(k))
		}
		st.ActRows, acts = acts[0], acts[1:]
		return st
	}
	return rows, stats(plan), nil
}
