// Package datum implements the typed values that flow through the query
// engine: rows are slices of Datum, predicates compare Datums, and the
// correctness oracle compares multisets of Datum rows.
//
// SQL three-valued logic is modeled with an explicit Null kind; comparison
// operators on Datums return a tri-state (True/False/Unknown).
package datum

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Type identifies the SQL-level type of a column or value.
type Type int

// Column types supported by the engine. Dates are stored as days since an
// arbitrary epoch, which is all TPC-H predicates need.
const (
	TypeUnknown Type = iota
	TypeInt
	TypeFloat
	TypeString
	TypeBool
	TypeDate
)

// String returns the SQL-ish spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOLEAN"
	case TypeDate:
		return "DATE"
	default:
		return "UNKNOWN"
	}
}

// Kind discriminates the runtime representation held by a Datum. It is one
// byte, padded to a word: a Datum is two words.
type Kind uint8

// Datum kinds. KindNull is its own kind regardless of the column type.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// Datum is a single SQL value. The zero value is NULL. It is 16 bytes and
// holds no pointer: every table, column vector, batch and cached result is an
// array of these, so a word here is a word per value moved and cleared, and a
// pointer would have the collector scan every value, integers included.
type Datum struct {
	K Kind
	// I is the one payload word: the value of a KindInt or KindDate, the
	// IEEE-754 bits of a KindFloat (read it through Float), 0 or 1 for a
	// KindBool (read it through Bool) and the intern ID of a KindString (read
	// it through Str). Struct equality is therefore bitwise — NaN equals
	// itself and +0.0 differs from -0.0, unlike under Compare — and, the
	// intern table being canonical, strings are equal by value.
	I int64
}

// interned is the process-wide string table behind KindString datums: a
// string's ID is its index in list, given on first use and never changed, so
// equal strings have equal IDs. IDs follow interning order, which varies with
// scheduling: they may decide equality and hashing, never order or output.
// The table only grows; writers serialize on mu and publish each longer list
// atomically, so readers index it without a lock. ID 0 is "".
var interned struct {
	mu   sync.Mutex
	ids  map[string]int64
	list atomic.Pointer[[]string]
}

func init() {
	interned.ids = map[string]int64{"": 0}
	interned.list.Store(&[]string{""})
}

// Null is the SQL NULL value.
var Null = Datum{K: KindNull}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{K: KindInt, I: v} }

// NewFloat returns a float datum.
func NewFloat(v float64) Datum { return Datum{K: KindFloat, I: int64(math.Float64bits(v))} }

// NewString returns a string datum, interning v on its first use.
func NewString(v string) Datum {
	interned.mu.Lock()
	defer interned.mu.Unlock()
	id, ok := interned.ids[v]
	if !ok {
		v = strings.Clone(v) // pin no larger text v may be cut from
		list := append(*interned.list.Load(), v)
		id = int64(len(list) - 1)
		interned.ids[v] = id
		interned.list.Store(&list)
	}
	return Datum{K: KindString, I: id}
}

// NewBool returns a boolean datum.
func NewBool(v bool) Datum {
	if v {
		return Datum{K: KindBool, I: 1}
	}
	return Datum{K: KindBool}
}

// NewDate returns a date datum holding days since the engine epoch.
func NewDate(days int64) Datum { return Datum{K: KindDate, I: days} }

// IsNull reports whether d is SQL NULL.
func (d Datum) IsNull() bool { return d.K == KindNull }

// Float returns the value of a KindFloat datum, bit for bit what NewFloat was
// given (NaN payloads included).
func (d Datum) Float() float64 { return math.Float64frombits(uint64(d.I)) }

// Bool returns the value of a KindBool datum.
func (d Datum) Bool() bool { return d.I != 0 }

// Str returns the value of a KindString datum, "" for any other kind.
func (d Datum) Str() string {
	if d.K != KindString {
		return ""
	}
	return (*interned.list.Load())[d.I]
}

// Tri is the three-valued logic truth value produced by SQL comparisons.
type Tri int

// Three-valued logic constants.
const (
	False   Tri = 0
	True    Tri = 1
	Unknown Tri = 2
)

// And returns SQL AND over tri-state values.
func (t Tri) And(o Tri) Tri {
	if t == False || o == False {
		return False
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return True
}

// Or returns SQL OR over tri-state values.
func (t Tri) Or(o Tri) Tri {
	if t == True || o == True {
		return True
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return False
}

// Not returns SQL NOT over tri-state values.
func (t Tri) Not() Tri {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// TriFromBool converts a Go bool to a Tri.
func TriFromBool(b bool) Tri {
	if b {
		return True
	}
	return False
}

// numeric returns the value as float64 for cross-type numeric comparison.
func (d *Datum) numeric() (float64, bool) {
	switch d.K {
	case KindInt, KindDate:
		return float64(d.I), true
	case KindFloat:
		return d.Float(), true
	default:
		return 0, false
	}
}

// Compare orders two non-NULL datums: -1, 0, +1. Comparing a NULL or
// incomparable kinds returns ok=false. Ints, floats and dates compare
// numerically with each other through their float64 image — so two integers
// beyond 2^53 that share an image are equal, as they are under AppendKey, and
// a NaN, being neither less nor greater, is equal to everything numeric;
// strings and bools compare only with their own kind.
func Compare(a, b Datum) (cmp int, ok bool) { return ComparePtr(&a, &b) }

// ComparePtr is Compare on two values where they lie — a column vector's
// cell, a row's slot — without copying either.
func ComparePtr(a, b *Datum) (cmp int, ok bool) {
	if an, aok := a.numeric(); aok {
		bn, bok := b.numeric()
		if !bok {
			return 0, false
		}
		switch {
		case an < bn:
			return -1, true
		case an > bn:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.K != b.K {
		return 0, false
	}
	switch a.K {
	case KindString:
		if a.I == b.I {
			return 0, true
		}
		return strings.Compare(a.Str(), b.Str()), true
	case KindBool:
		switch ab, bb := a.Bool(), b.Bool(); {
		case !ab && bb:
			return -1, true
		case ab && !bb:
			return 1, true
		default:
			return 0, true
		}
	}
	return 0, false
}

// TotalCompare imposes a total order over all datums, NULLs first, for use by
// sort operators and the result-comparison oracle. Unlike Compare it never
// fails: kinds are ordered by kind number when incomparable.
func TotalCompare(a, b Datum) int {
	if a.IsNull() && b.IsNull() {
		return 0
	}
	if a.IsNull() {
		return -1
	}
	if b.IsNull() {
		return 1
	}
	if c, ok := Compare(a, b); ok {
		return c
	}
	switch {
	case a.K < b.K:
		return -1
	case a.K > b.K:
		return 1
	}
	return 0
}

// String renders the datum for display and for use in generated SQL literals.
func (d Datum) String() string {
	switch d.K {
	case KindNull:
		return "NULL"
	case KindInt, KindDate:
		return strconv.FormatInt(d.I, 10)
	case KindFloat:
		return strconv.FormatFloat(d.Float(), 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(d.Str(), "'", "''") + "'"
	case KindBool:
		if d.Bool() {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// TypeOf returns the column type matching the datum's runtime kind.
func (d Datum) TypeOf() Type {
	switch d.K {
	case KindInt:
		return TypeInt
	case KindFloat:
		return TypeFloat
	case KindString:
		return TypeString
	case KindBool:
		return TypeBool
	case KindDate:
		return TypeDate
	}
	return TypeUnknown
}

// Row is a tuple of datums.
type Row []Datum

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// AppendKey appends an injective, prefix-free encoding of the datum to buf
// and returns the extended slice. Rows that Compare equal produce equal
// encodings (numeric kinds are folded through their float64 image) unless a
// NaN, which Compare calls equal to every number, is among them; rows that
// differ produce different encodings regardless of the bytes string
// values contain: string parts are length-prefixed rather than escaped, so a
// value embedding the separator bytes of neighboring parts cannot alias a
// different row. Every non-string part is terminated by ';', which cannot
// occur inside a decimal number, a %g float, "Inf" or "NaN".
func (d Datum) AppendKey(buf []byte) []byte {
	switch d.K {
	case KindNull:
		return append(buf, 'n', ';')
	case KindInt, KindFloat, KindDate:
		f, _ := d.numeric()
		if f == float64(int64(f)) {
			buf = append(buf, 'i')
			buf = strconv.AppendInt(buf, int64(f), 10)
		} else {
			buf = append(buf, 'f')
			buf = strconv.AppendFloat(buf, f, 'g', -1, 64)
		}
		return append(buf, ';')
	case KindString:
		s := d.Str()
		buf = append(buf, 's')
		buf = strconv.AppendInt(buf, int64(len(s)), 10)
		buf = append(buf, ':')
		return append(buf, s...)
	case KindBool:
		if d.Bool() {
			return append(buf, 'b', '1', ';')
		}
		return append(buf, 'b', '0', ';')
	}
	return append(buf, '?', ';')
}
