// Package physical defines executable operator trees: the output of the
// optimizer's implementation phase and the input to the execution engine.
package physical

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"unsafe"

	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// Op enumerates physical operators.
type Op int

// Physical operators.
const (
	OpScan Op = iota
	OpFilter
	OpProject
	OpHashJoin
	OpNLJoin
	OpMergeJoin
	OpHashAgg
	OpSortAgg
	OpSort
	OpLimit
	OpConcat
)

var opNames = [...]string{
	OpScan:      "Scan",
	OpFilter:    "Filter",
	OpProject:   "Project",
	OpHashJoin:  "HashJoin",
	OpNLJoin:    "NLJoin",
	OpMergeJoin: "MergeJoin",
	OpHashAgg:   "HashAgg",
	OpSortAgg:   "SortAgg",
	OpSort:      "Sort",
	OpLimit:     "Limit",
	OpConcat:    "Concat",
}

// String returns the operator name.
func (o Op) String() string { return opNames[o] }

// JoinType distinguishes the join variants a physical join can execute.
type JoinType int

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeft
	JoinSemi
	JoinAnti
)

var joinNames = [...]string{"Inner", "Left", "Semi", "Anti"}

// String returns the join type name.
func (t JoinType) String() string { return joinNames[t] }

// Expr is a physical operator tree node annotated with the optimizer's
// cardinality and cost estimates.
type Expr struct {
	Op       Op
	JoinType JoinType
	Children []*Expr

	// OpScan
	Table string
	Cols  []scalar.ColumnID

	// OpFilter
	Filter scalar.Expr

	// joins: On is the full predicate; EquiLeft/EquiRight are the key
	// columns hash and merge joins probe on (always a subset of On).
	On        scalar.Expr
	EquiLeft  []scalar.ColumnID
	EquiRight []scalar.ColumnID

	// OpProject
	Projs []logical.ProjItem

	// aggregation
	GroupCols []scalar.ColumnID
	Aggs      []scalar.Agg

	// OpConcat
	OutCols   []scalar.ColumnID
	InputCols [][]scalar.ColumnID

	// OpLimit
	N int64

	// OpSort
	Keys []logical.SortKey

	// Annotations filled by the optimizer.
	Rows float64 // estimated output cardinality
	Cost float64 // cumulative estimated cost

	// hash memoizes Hash() as an atomically published *string. Plans are
	// immutable once the optimizer hands them out (mutation-injection
	// rewrites physical nodes only inside implementation rules, before
	// anything can observe them), so the fingerprint never needs
	// invalidation; a racing double computation stores the same string
	// either way. A raw unsafe.Pointer rather than atomic.Pointer[string]
	// because the latter's noCopy would forbid the by-value candidate
	// construction of the implementation rules (rules.Context builds each
	// candidate by assigning a whole Expr into a new or recycled node, which
	// also clears this field) — those copies happen strictly before the node
	// is published.
	hash unsafe.Pointer
}

// cachedHash returns the memoized fingerprint, or "" before first compute.
func (e *Expr) cachedHash() string {
	if p := (*string)(atomic.LoadPointer(&e.hash)); p != nil {
		return *p
	}
	return ""
}

func (e *Expr) storeHash(h string) { atomic.StorePointer(&e.hash, unsafe.Pointer(&h)) }

// OutputCols returns the ordered column layout the operator produces; the
// execution engine maps ColumnIDs to row slots with it.
func (e *Expr) OutputCols() []scalar.ColumnID {
	switch e.Op {
	case OpScan:
		return e.Cols
	case OpFilter, OpSort, OpLimit:
		return e.Children[0].OutputCols()
	case OpProject:
		out := make([]scalar.ColumnID, len(e.Projs))
		for i, p := range e.Projs {
			out[i] = p.Out
		}
		return out
	case OpHashJoin, OpNLJoin, OpMergeJoin:
		switch e.JoinType {
		case JoinSemi, JoinAnti:
			return e.Children[0].OutputCols()
		default:
			l := e.Children[0].OutputCols()
			r := e.Children[1].OutputCols()
			out := make([]scalar.ColumnID, 0, len(l)+len(r))
			out = append(out, l...)
			return append(out, r...)
		}
	case OpHashAgg, OpSortAgg:
		out := make([]scalar.ColumnID, 0, len(e.GroupCols)+len(e.Aggs))
		out = append(out, e.GroupCols...)
		for _, a := range e.Aggs {
			out = append(out, a.Out)
		}
		return out
	case OpConcat:
		return e.OutCols
	}
	return nil
}

// Hash returns the plan's text, its one identity: two plans have the same
// text if and only if they are equal in structure and arguments (constant
// kinds included), cost annotations aside. The correctness runner skips
// executing Plan(q,¬R) when its text is Plan(q)'s (paper footnote 1) and the
// result cache keys executions by it, so a text two different plans shared
// would silence a check. No report prints it.
//
// Hash is memoized per node: campaigns read the same plan's text at every
// site that keys on it (skip checks, result-cache keys, the shrinker's
// budget), and since subtrees memoize too, plans that share subplans share
// the work.
func (e *Expr) Hash() string {
	if h := e.cachedHash(); h != "" {
		return h
	}
	// Column and sort-key lists are written as fmt's %v would write them
	// ("[1 2]", "[[1 2] [3]]", "[{3 false}]").
	size := 64
	for _, c := range e.Children {
		size += len(c.Hash())
	}
	var sb strings.Builder
	sb.Grow(size)
	writeInt(&sb, int64(e.Op))
	sb.WriteByte('/')
	writeInt(&sb, int64(e.JoinType))
	sb.WriteByte('|')
	switch e.Op {
	case OpScan:
		sb.WriteString(e.Table)
		writeCols(&sb, e.Cols)
	case OpFilter:
		scalar.HashInto(e.Filter, &sb)
	case OpHashJoin, OpNLJoin, OpMergeJoin:
		if e.On != nil {
			scalar.HashInto(e.On, &sb)
		}
		writeCols(&sb, e.EquiLeft)
		writeCols(&sb, e.EquiRight)
	case OpProject:
		for _, p := range e.Projs {
			writeInt(&sb, int64(p.Out))
			sb.WriteByte('=')
			scalar.HashInto(p.E, &sb)
			sb.WriteByte(';')
		}
	case OpHashAgg, OpSortAgg:
		writeCols(&sb, e.GroupCols)
		sb.WriteByte('|')
		for _, a := range e.Aggs {
			a.HashInto(&sb)
		}
	case OpConcat:
		writeCols(&sb, e.OutCols)
		sb.WriteByte('[')
		for i, in := range e.InputCols {
			if i > 0 {
				sb.WriteByte(' ')
			}
			writeCols(&sb, in)
		}
		sb.WriteByte(']')
	case OpLimit:
		writeInt(&sb, e.N)
	case OpSort:
		sb.WriteByte('[')
		for i, k := range e.Keys {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteByte('{')
			writeInt(&sb, int64(k.Col))
			if k.Desc {
				sb.WriteString(" true}")
			} else {
				sb.WriteString(" false}")
			}
		}
		sb.WriteByte(']')
	}
	sb.WriteByte('(')
	for _, c := range e.Children {
		sb.WriteString(c.Hash())
	}
	sb.WriteByte(')')
	h := sb.String()
	e.storeHash(h)
	return h
}

func writeInt(sb *strings.Builder, v int64) {
	var buf [20]byte
	sb.Write(strconv.AppendInt(buf[:0], v, 10))
}

// writeCols writes a column list as %v does: "[1 2]".
func writeCols(sb *strings.Builder, cols []scalar.ColumnID) {
	sb.WriteByte('[')
	for i, c := range cols {
		if i > 0 {
			sb.WriteByte(' ')
		}
		writeInt(sb, int64(c))
	}
	sb.WriteByte(']')
}

// String renders an indented plan with cost annotations, in the spirit of
// EXPLAIN output.
func (e *Expr) String() string {
	cname := func(c scalar.ColumnID) string { return fmt.Sprintf("c%d", c) }
	var sb strings.Builder
	var walk func(x *Expr, depth int)
	walk = func(x *Expr, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(x.Op.String())
		// Operator payloads are part of the rendering: two plans that differ
		// only in a sort direction, a limit count or an aggregate function
		// must render differently — the correctness reports use this output
		// as plan-diff evidence.
		switch x.Op {
		case OpHashJoin, OpNLJoin, OpMergeJoin:
			fmt.Fprintf(&sb, "(%s", x.JoinType)
			for i := range x.EquiLeft {
				fmt.Fprintf(&sb, " c%d=c%d", x.EquiLeft[i], x.EquiRight[i])
			}
			sb.WriteString(")")
		case OpScan:
			fmt.Fprintf(&sb, "(%s)", x.Table)
		case OpFilter:
			if x.Filter != nil {
				fmt.Fprintf(&sb, "(%s)", scalar.SQL(x.Filter, cname))
			}
		case OpSort:
			parts := make([]string, len(x.Keys))
			for i, k := range x.Keys {
				parts[i] = fmt.Sprintf("c%d", k.Col)
				if k.Desc {
					parts[i] += " desc"
				}
			}
			fmt.Fprintf(&sb, "(%s)", strings.Join(parts, ", "))
		case OpLimit:
			fmt.Fprintf(&sb, "(%d)", x.N)
		case OpHashAgg, OpSortAgg:
			parts := make([]string, 0, len(x.GroupCols)+len(x.Aggs))
			for _, c := range x.GroupCols {
				parts = append(parts, fmt.Sprintf("c%d", c))
			}
			for _, a := range x.Aggs {
				parts = append(parts, a.SQL(cname))
			}
			fmt.Fprintf(&sb, "(%s)", strings.Join(parts, ", "))
		}
		fmt.Fprintf(&sb, "  rows=%.0f cost=%.1f\n", x.Rows, x.Cost)
		for _, c := range x.Children {
			walk(c, depth+1)
		}
	}
	walk(e, 0)
	return sb.String()
}

// CountOps returns the number of operators in the plan.
func (e *Expr) CountOps() int {
	n := 1
	for _, c := range e.Children {
		n += c.CountOps()
	}
	return n
}
