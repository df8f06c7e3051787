// Package logical defines logical query trees: trees of relational operators
// with instantiated arguments (§2.2 of the paper). These trees are the input
// to the optimizer, the output of query generation, and the thing rule
// patterns match against.
package logical

import (
	"fmt"
	"slices"
	"strings"

	"qtrtest/internal/fnv64"
	"qtrtest/internal/scalar"
)

// Op enumerates logical relational operators.
type Op int

// Logical operators. OpAny never appears in a real tree; it is the generic
// placeholder used by rule patterns (the circles in the paper's Figure 3).
const (
	OpAny Op = iota
	OpGet
	OpSelect
	OpProject
	OpJoin
	OpLeftJoin
	OpSemiJoin
	OpAntiJoin
	OpGroupBy
	OpUnionAll
	OpLimit
	OpSort
)

var opNames = [...]string{
	OpAny:      "Any",
	OpGet:      "Get",
	OpSelect:   "Select",
	OpProject:  "Project",
	OpJoin:     "Join",
	OpLeftJoin: "LeftJoin",
	OpSemiJoin: "SemiJoin",
	OpAntiJoin: "AntiJoin",
	OpGroupBy:  "GroupBy",
	OpUnionAll: "UnionAll",
	OpLimit:    "Limit",
	OpSort:     "Sort",
}

// String returns the operator name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Arity returns the number of children the operator takes.
func (o Op) Arity() int {
	switch o {
	case OpGet:
		return 0
	case OpJoin, OpLeftJoin, OpSemiJoin, OpAntiJoin, OpUnionAll:
		return 2
	default:
		return 1
	}
}

// IsJoin reports whether the operator is one of the join variants.
func (o Op) IsJoin() bool {
	switch o {
	case OpJoin, OpLeftJoin, OpSemiJoin, OpAntiJoin:
		return true
	}
	return false
}

// ProjItem computes expression E into output column Out.
type ProjItem struct {
	Out scalar.ColumnID
	E   scalar.Expr
}

// SortKey orders by Col, descending if Desc.
type SortKey struct {
	Col  scalar.ColumnID
	Desc bool
}

// Expr is a logical operator with instantiated arguments. A single struct
// with per-operator payload fields keeps rule code compact; only the fields
// relevant to Op are meaningful.
type Expr struct {
	Op       Op
	Children []*Expr

	// OpGet
	Table string
	Cols  []scalar.ColumnID // one per table column, in table order

	// OpSelect
	Filter scalar.Expr

	// join variants
	On scalar.Expr

	// OpProject
	Projs []ProjItem

	// OpGroupBy
	GroupCols []scalar.ColumnID
	Aggs      []scalar.Agg

	// OpUnionAll: OutCols[i] is produced from InputCols[child][i].
	OutCols   []scalar.ColumnID
	InputCols [][]scalar.ColumnID

	// OpLimit
	N int64

	// OpSort
	Keys []SortKey
}

// OutputCols returns the columns the operator produces, in order.
func (e *Expr) OutputCols() []scalar.ColumnID {
	switch e.Op {
	case OpGet:
		return e.Cols
	case OpSelect, OpLimit, OpSort:
		return e.Children[0].OutputCols()
	case OpProject:
		out := make([]scalar.ColumnID, len(e.Projs))
		for i, p := range e.Projs {
			out[i] = p.Out
		}
		return out
	case OpJoin, OpLeftJoin:
		l := e.Children[0].OutputCols()
		r := e.Children[1].OutputCols()
		out := make([]scalar.ColumnID, 0, len(l)+len(r))
		out = append(out, l...)
		out = append(out, r...)
		return out
	case OpSemiJoin, OpAntiJoin:
		return e.Children[0].OutputCols()
	case OpGroupBy:
		out := make([]scalar.ColumnID, 0, len(e.GroupCols)+len(e.Aggs))
		out = append(out, e.GroupCols...)
		for _, a := range e.Aggs {
			out = append(out, a.Out)
		}
		return out
	case OpUnionAll:
		return e.OutCols
	}
	return nil
}

// OutputColSet returns OutputCols as a set.
func (e *Expr) OutputColSet() scalar.ColSet {
	return scalar.NewColSet(e.OutputCols()...)
}

// CountOps returns the number of operators in the tree; the paper uses this
// to prefer small, debuggable generated queries (§2.3).
func (e *Expr) CountOps() int {
	n := 1
	for _, c := range e.Children {
		n += c.CountOps()
	}
	return n
}

// Clone returns a deep copy of the operator tree. Scalar expressions are
// shared: they are immutable by convention in this codebase.
func (e *Expr) Clone() *Expr {
	out := *e
	out.Children = make([]*Expr, len(e.Children))
	for i, c := range e.Children {
		out.Children[i] = c.Clone()
	}
	out.Cols = append([]scalar.ColumnID(nil), e.Cols...)
	out.Projs = append([]ProjItem(nil), e.Projs...)
	out.GroupCols = append([]scalar.ColumnID(nil), e.GroupCols...)
	out.Aggs = append([]scalar.Agg(nil), e.Aggs...)
	out.OutCols = append([]scalar.ColumnID(nil), e.OutCols...)
	if e.InputCols != nil {
		out.InputCols = make([][]scalar.ColumnID, len(e.InputCols))
		for i, cs := range e.InputCols {
			out.InputCols[i] = append([]scalar.ColumnID(nil), cs...)
		}
	}
	out.Keys = append([]SortKey(nil), e.Keys...)
	return &out
}

// PayloadFingerprint mixes the operator's own arguments (not its children)
// into h, the memo's interning key. PayloadEqual(a, b) implies identical
// fingerprints; the converse can fail on hash collisions, which the memo
// resolves with a PayloadEqual check per bucket entry.
func (e *Expr) PayloadFingerprint(h *fnv64.Hash) {
	h.Int(int64(e.Op))
	switch e.Op {
	case OpGet:
		h.String(e.Table)
		fingerprintCols(h, e.Cols)
	case OpSelect:
		scalar.FingerprintInto(e.Filter, h)
	case OpJoin, OpLeftJoin, OpSemiJoin, OpAntiJoin:
		scalar.FingerprintInto(e.On, h)
	case OpProject:
		h.Int(int64(len(e.Projs)))
		for _, p := range e.Projs {
			h.Int(int64(p.Out))
			scalar.FingerprintInto(p.E, h)
		}
	case OpGroupBy:
		fingerprintCols(h, e.GroupCols)
		h.Int(int64(len(e.Aggs)))
		for _, a := range e.Aggs {
			a.FingerprintInto(h)
		}
	case OpUnionAll:
		fingerprintCols(h, e.OutCols)
		h.Int(int64(len(e.InputCols)))
		for _, in := range e.InputCols {
			fingerprintCols(h, in)
		}
	case OpLimit:
		h.Int(e.N)
	case OpSort:
		h.Int(int64(len(e.Keys)))
		for _, k := range e.Keys {
			h.Int(int64(k.Col))
			h.Bool(k.Desc)
		}
	}
}

func fingerprintCols(h *fnv64.Hash, cols []scalar.ColumnID) {
	h.Int(int64(len(cols)))
	for _, c := range cols {
		h.Int(int64(c))
	}
}

// PayloadEqual reports whether two nodes carry the same operator and
// payload arguments, ignoring children — the collision-proof equality the
// memo's interning table rests on.
func (e *Expr) PayloadEqual(o *Expr) bool {
	if e.Op != o.Op {
		return false
	}
	switch e.Op {
	case OpGet:
		return e.Table == o.Table && slices.Equal(e.Cols, o.Cols)
	case OpSelect:
		return scalar.Equal(e.Filter, o.Filter)
	case OpJoin, OpLeftJoin, OpSemiJoin, OpAntiJoin:
		return scalar.Equal(e.On, o.On)
	case OpProject:
		return slices.EqualFunc(e.Projs, o.Projs, func(p, q ProjItem) bool {
			return p.Out == q.Out && scalar.Equal(p.E, q.E)
		})
	case OpGroupBy:
		return slices.Equal(e.GroupCols, o.GroupCols) && slices.EqualFunc(e.Aggs, o.Aggs, scalar.Agg.Equal)
	case OpUnionAll:
		return slices.Equal(e.OutCols, o.OutCols) && slices.EqualFunc(e.InputCols, o.InputCols, slices.Equal[[]scalar.ColumnID])
	case OpLimit:
		return e.N == o.N
	case OpSort:
		return slices.Equal(e.Keys, o.Keys)
	}
	return true
}

// String renders an indented operator tree for debugging.
func (e *Expr) String() string {
	var sb strings.Builder
	var walk func(x *Expr, depth int)
	walk = func(x *Expr, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(x.Op.String())
		switch x.Op {
		case OpGet:
			fmt.Fprintf(&sb, "(%s)", x.Table)
		case OpSelect:
			sb.WriteByte('[')
			scalar.HashInto(x.Filter, &sb)
			sb.WriteByte(']')
		case OpJoin, OpLeftJoin, OpSemiJoin, OpAntiJoin:
			sb.WriteByte('[')
			scalar.HashInto(x.On, &sb)
			sb.WriteByte(']')
		case OpGroupBy:
			fmt.Fprintf(&sb, "[by %v]", x.GroupCols)
		case OpLimit:
			fmt.Fprintf(&sb, "[%d]", x.N)
		}
		sb.WriteString("\n")
		for _, c := range x.Children {
			walk(c, depth+1)
		}
	}
	walk(e, 0)
	return sb.String()
}

// Walk visits every node of the tree in pre-order.
func (e *Expr) Walk(fn func(*Expr)) {
	fn(e)
	for _, c := range e.Children {
		c.Walk(fn)
	}
}

// ContainsOp reports whether any node in the tree has the given operator.
func (e *Expr) ContainsOp(op Op) bool {
	found := false
	e.Walk(func(x *Expr) {
		if x.Op == op {
			found = true
		}
	})
	return found
}
