// Package scalar implements scalar expression trees: column references,
// constants, comparisons, arithmetic, boolean connectives and aggregate
// functions. Columns are referred to by optimizer-wide ColumnIDs, so
// expressions are position-independent and survive tree rewrites (a rule can
// move a predicate without rebinding it).
package scalar

import (
	"bytes"
	"slices"
	"strconv"
	"strings"

	"qtrtest/internal/datum"
	"qtrtest/internal/fnv64"
)

// ColumnID uniquely identifies a column instance within one query. Two scans
// of the same table produce disjoint ColumnIDs, so self-joins are unambiguous.
type ColumnID int

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// String returns the SQL spelling of the operator.
func (o CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[o]
}

// Commute returns the operator with operands swapped (a < b ⇔ b > a).
func (o CmpOp) Commute() CmpOp {
	switch o {
	case CmpLT:
		return CmpGT
	case CmpLE:
		return CmpGE
	case CmpGT:
		return CmpLT
	case CmpGE:
		return CmpLE
	default:
		return o
	}
}

// ArithOp enumerates arithmetic operators.
type ArithOp int

// Arithmetic operators.
const (
	ArithAdd ArithOp = iota
	ArithSub
	ArithMul
)

// String returns the SQL spelling of the operator.
func (o ArithOp) String() string { return [...]string{"+", "-", "*"}[o] }

// Expr is a scalar expression node.
type Expr interface {
	// Cols adds every column referenced by the expression to out.
	Cols(out *ColSet)
}

// ColRef references a column by id.
type ColRef struct{ ID ColumnID }

// refs backs Ref: refs[i] is ColRef{ID: i}.
var refs = func() (t [1 << 12]ColRef) {
	for i := range t {
		t[i].ID = ColumnID(i)
	}
	return t
}()

// Ref returns a reference to column id that callers share, so it must never
// be modified: it costs no allocation (but for ids past the table's 4 096,
// which get a node of their own).
func Ref(id ColumnID) *ColRef {
	if uint(id) < uint(len(refs)) {
		return &refs[id]
	}
	return &ColRef{ID: id}
}

// Const is a literal.
type Const struct{ D datum.Datum }

// Cmp is a binary comparison.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Arith is binary arithmetic.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// And is the conjunction of its children (n-ary; empty means TRUE).
type And struct{ Kids []Expr }

// Or is the disjunction of its children (n-ary; must be non-empty).
type Or struct{ Kids []Expr }

// Not negates its child.
type Not struct{ Kid Expr }

// IsNull tests its child for SQL NULL.
type IsNull struct{ Kid Expr }

// Cols implements Expr.
func (e *ColRef) Cols(out *ColSet) { out.Add(e.ID) }

// Cols implements Expr.
func (e *Const) Cols(out *ColSet) {}

// Cols implements Expr.
func (e *Cmp) Cols(out *ColSet) { e.L.Cols(out); e.R.Cols(out) }

// Cols implements Expr.
func (e *Arith) Cols(out *ColSet) { e.L.Cols(out); e.R.Cols(out) }

// Cols implements Expr.
func (e *And) Cols(out *ColSet) {
	for _, k := range e.Kids {
		k.Cols(out)
	}
}

// Cols implements Expr.
func (e *Or) Cols(out *ColSet) {
	for _, k := range e.Kids {
		k.Cols(out)
	}
}

// Cols implements Expr.
func (e *Not) Cols(out *ColSet) { e.Kid.Cols(out) }

// Cols implements Expr.
func (e *IsNull) Cols(out *ColSet) { e.Kid.Cols(out) }

// SQL renders the expression, mapping ColumnIDs to SQL column names through
// name.
func SQL(e Expr, name func(ColumnID) string) string {
	var buf bytes.Buffer
	WriteSQL(&buf, e, func(buf *bytes.Buffer, id ColumnID) { buf.WriteString(name(id)) })
	return buf.String()
}

// WriteSQL appends the SQL text of e to buf, writing each column with col.
func WriteSQL(buf *bytes.Buffer, e Expr, col func(*bytes.Buffer, ColumnID)) {
	switch t := e.(type) {
	case *ColRef:
		col(buf, t.ID)
	case *Const:
		buf.WriteString(t.D.String())
	case *Cmp:
		writeBinSQL(buf, t.L, t.Op.String(), t.R, col)
	case *Arith:
		writeBinSQL(buf, t.L, t.Op.String(), t.R, col)
	case *And:
		if len(t.Kids) == 0 {
			buf.WriteString("TRUE")
			return
		}
		writeListSQL(buf, t.Kids, " AND ", col)
	case *Or:
		writeListSQL(buf, t.Kids, " OR ", col)
	case *Not:
		buf.WriteString("(NOT ")
		WriteSQL(buf, t.Kid, col)
		buf.WriteByte(')')
	case *IsNull:
		buf.WriteByte('(')
		WriteSQL(buf, t.Kid, col)
		buf.WriteString(" IS NULL)")
	}
}

func writeBinSQL(buf *bytes.Buffer, l Expr, op string, r Expr, col func(*bytes.Buffer, ColumnID)) {
	buf.WriteByte('(')
	WriteSQL(buf, l, col)
	buf.WriteByte(' ')
	buf.WriteString(op)
	buf.WriteByte(' ')
	WriteSQL(buf, r, col)
	buf.WriteByte(')')
}

func writeListSQL(buf *bytes.Buffer, kids []Expr, sep string, col func(*bytes.Buffer, ColumnID)) {
	buf.WriteByte('(')
	for i, k := range kids {
		if i > 0 {
			buf.WriteString(sep)
		}
		WriteSQL(buf, k, col)
	}
	buf.WriteByte(')')
}

// HashInto appends the text of e to sb, the scalar part of a plan's text
// (physical.Expr.Hash): two expressions write the same text if and only if
// they are Equal. A constant is written with its kind where the value alone
// would not tell it: FLOAT 5 is kf5 and DATE 5 kd5, beside INT 5's k5.
func HashInto(e Expr, sb *strings.Builder) {
	switch t := e.(type) {
	case *ColRef:
		sb.WriteByte('c')
		writeInt(sb, int64(t.ID))
	case *Const:
		sb.WriteByte('k')
		switch t.D.K {
		case datum.KindFloat:
			sb.WriteByte('f')
		case datum.KindDate:
			sb.WriteByte('d')
		}
		sb.WriteString(t.D.String())
	case *Cmp:
		sb.WriteByte('(')
		HashInto(t.L, sb)
		sb.WriteString(t.Op.String())
		HashInto(t.R, sb)
		sb.WriteByte(')')
	case *Arith:
		sb.WriteByte('(')
		HashInto(t.L, sb)
		sb.WriteString(t.Op.String())
		HashInto(t.R, sb)
		sb.WriteByte(')')
	case *And:
		sb.WriteString("and(")
		for i, k := range t.Kids {
			if i > 0 {
				sb.WriteByte(',')
			}
			HashInto(k, sb)
		}
		sb.WriteByte(')')
	case *Or:
		sb.WriteString("or(")
		for i, k := range t.Kids {
			if i > 0 {
				sb.WriteByte(',')
			}
			HashInto(k, sb)
		}
		sb.WriteByte(')')
	case *Not:
		sb.WriteString("not(")
		HashInto(t.Kid, sb)
		sb.WriteByte(')')
	case *IsNull:
		sb.WriteString("isnull(")
		HashInto(t.Kid, sb)
		sb.WriteByte(')')
	default:
		sb.WriteByte('?')
	}
}

func writeInt(sb *strings.Builder, v int64) {
	var buf [20]byte
	sb.Write(strconv.AppendInt(buf[:0], v, 10))
}

// FingerprintInto mixes a structural fingerprint of e into h, the scalar
// part of the memo's interning key. Two expressions with Equal(a, b) always
// produce identical fingerprints; the converse is not guaranteed (hash
// collisions), which is why the memo backs every fingerprint with an Equal
// check.
func FingerprintInto(e Expr, h *fnv64.Hash) {
	switch t := e.(type) {
	case *ColRef:
		h.Byte('c')
		h.Int(int64(t.ID))
	case *Const:
		h.Byte('k')
		fingerprintDatum(t.D, h)
	case *Cmp:
		h.Byte('(')
		h.Int(int64(t.Op))
		FingerprintInto(t.L, h)
		FingerprintInto(t.R, h)
	case *Arith:
		h.Byte('+')
		h.Int(int64(t.Op))
		FingerprintInto(t.L, h)
		FingerprintInto(t.R, h)
	case *And:
		h.Byte('a')
		h.Int(int64(len(t.Kids)))
		for _, k := range t.Kids {
			FingerprintInto(k, h)
		}
	case *Or:
		h.Byte('o')
		h.Int(int64(len(t.Kids)))
		for _, k := range t.Kids {
			FingerprintInto(k, h)
		}
	case *Not:
		h.Byte('n')
		FingerprintInto(t.Kid, h)
	case *IsNull:
		h.Byte('z')
		FingerprintInto(t.Kid, h)
	default:
		h.Byte('?')
	}
}

// fingerprintDatum mixes what Equal compares two constants on: kind, then a
// string's bytes (not its intern ID, which varies with scheduling) or any
// other kind's payload word. Only the memo's interning table reads the sum.
func fingerprintDatum(d datum.Datum, h *fnv64.Hash) {
	h.Int(int64(d.K))
	if d.K == datum.KindString {
		h.String(d.Str())
	} else {
		h.Int(d.I)
	}
}

// Equal reports full structural equality of two scalar expressions: the
// identity of a scalar, and the collision-proof ground truth behind
// FingerprintInto.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case *ColRef:
		y, ok := b.(*ColRef)
		return ok && x.ID == y.ID
	case *Const:
		y, ok := b.(*Const)
		return ok && x.D == y.D
	case *Cmp:
		y, ok := b.(*Cmp)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Arith:
		y, ok := b.(*Arith)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *And:
		y, ok := b.(*And)
		return ok && slices.EqualFunc(x.Kids, y.Kids, Equal)
	case *Or:
		y, ok := b.(*Or)
		return ok && slices.EqualFunc(x.Kids, y.Kids, Equal)
	case *Not:
		y, ok := b.(*Not)
		return ok && Equal(x.Kid, y.Kid)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && Equal(x.Kid, y.Kid)
	}
	return false
}

// TrueExpr returns an always-true predicate.
func TrueExpr() Expr { return &And{} }

// Conjuncts flattens a predicate into its top-level AND factors, in a list of
// its own.
func Conjuncts(e Expr) []Expr { return AppendConjuncts(nil, e) }

// AppendConjuncts appends the conjuncts of e, Conjuncts(e), to dst.
func AppendConjuncts(dst []Expr, e Expr) []Expr {
	if a, ok := e.(*And); ok {
		for _, k := range a.Kids {
			dst = AppendConjuncts(dst, k)
		}
		return dst
	}
	return append(dst, e)
}

// NumConjuncts returns len(Conjuncts(e)) without materializing the slice.
func NumConjuncts(e Expr) int {
	if a, ok := e.(*And); ok {
		n := 0
		for _, k := range a.Kids {
			n += NumConjuncts(k)
		}
		return n
	}
	return 1
}

// MakeAnd rebuilds a predicate from conjuncts; one conjunct is returned
// unwrapped, zero conjuncts become TRUE.
func MakeAnd(conjuncts []Expr) Expr {
	switch len(conjuncts) {
	case 0:
		return TrueExpr()
	case 1:
		return conjuncts[0]
	default:
		return &And{Kids: conjuncts}
	}
}

// ReferencedCols returns the set of columns the expression mentions.
func ReferencedCols(e Expr) ColSet {
	var s ColSet
	e.Cols(&s)
	return s
}

// RefsWithin reports whether every column referenced by e is in allowed. It
// is ReferencedCols(e).SubsetOf(allowed) without materializing the set, with
// early exit on the first outside reference.
func RefsWithin(e Expr, allowed ColSet) bool {
	switch t := e.(type) {
	case *ColRef:
		return allowed.Contains(t.ID)
	case *Const:
		return true
	case *Cmp:
		return RefsWithin(t.L, allowed) && RefsWithin(t.R, allowed)
	case *Arith:
		return RefsWithin(t.L, allowed) && RefsWithin(t.R, allowed)
	case *And:
		for _, k := range t.Kids {
			if !RefsWithin(k, allowed) {
				return false
			}
		}
		return true
	case *Or:
		for _, k := range t.Kids {
			if !RefsWithin(k, allowed) {
				return false
			}
		}
		return true
	case *Not:
		return RefsWithin(t.Kid, allowed)
	case *IsNull:
		return RefsWithin(t.Kid, allowed)
	}
	return ReferencedCols(e).SubsetOf(allowed)
}

// AggOp enumerates aggregate functions.
type AggOp int

// Aggregate functions.
const (
	AggCountStar AggOp = iota
	AggCount
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL name of the aggregate.
func (o AggOp) String() string {
	return [...]string{"COUNT", "COUNT", "SUM", "MIN", "MAX", "AVG"}[o]
}

// Agg is one aggregate computation: Op applied to Arg (nil for COUNT(*)),
// producing output column Out.
type Agg struct {
	Op  AggOp
	Arg Expr // nil for AggCountStar
	Out ColumnID
}

// SQL renders the aggregate call.
func (a Agg) SQL(name func(ColumnID) string) string {
	var buf bytes.Buffer
	a.WriteSQL(&buf, func(buf *bytes.Buffer, id ColumnID) { buf.WriteString(name(id)) })
	return buf.String()
}

// WriteSQL appends the aggregate call's SQL text to buf, as WriteSQL does for
// a scalar.
func (a Agg) WriteSQL(buf *bytes.Buffer, col func(*bytes.Buffer, ColumnID)) {
	if a.Op == AggCountStar {
		buf.WriteString("COUNT(*)")
		return
	}
	buf.WriteString(a.Op.String())
	buf.WriteByte('(')
	WriteSQL(buf, a.Arg, col)
	buf.WriteByte(')')
}

// HashInto appends the text of the aggregate to sb, the aggregate part of a
// plan's text: "cnt*->out", or "op(arg)->out" with op's number and arg
// written by HashInto.
func (a Agg) HashInto(sb *strings.Builder) {
	if a.Op == AggCountStar {
		sb.WriteString("cnt*")
	} else {
		writeInt(sb, int64(a.Op))
		sb.WriteByte('(')
		HashInto(a.Arg, sb)
		sb.WriteByte(')')
	}
	sb.WriteString("->")
	writeInt(sb, int64(a.Out))
}

// FingerprintInto mixes the aggregate's structural fingerprint into h.
func (a Agg) FingerprintInto(h *fnv64.Hash) {
	h.Int(int64(a.Op))
	h.Int(int64(a.Out))
	if a.Arg != nil {
		FingerprintInto(a.Arg, h)
	} else {
		h.Byte('*')
	}
}

// Equal reports structural equality of two aggregates.
func (a Agg) Equal(b Agg) bool {
	if a.Op != b.Op || a.Out != b.Out {
		return false
	}
	if (a.Arg == nil) != (b.Arg == nil) {
		return false
	}
	return a.Arg == nil || Equal(a.Arg, b.Arg)
}
