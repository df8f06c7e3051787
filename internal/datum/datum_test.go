package datum

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// A Datum is two words and holds no pointer. Every table, column vector,
// batch and cached result is an array of them, so a third word is half again
// the memory moved and cleared on every execution, and a field that can hold
// a pointer has the collector scan every value: either is a decision, not an
// accident.
func TestDatumIs16BytesAndPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Datum{}); n != 16 {
		t.Fatalf("unsafe.Sizeof(Datum{}) = %d, want 16", n)
	}
	typ := reflect.TypeOf(Datum{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); holdsPointer(f.Type) {
			t.Errorf("Datum.%s (%s) can hold a pointer", f.Name, f.Type)
		}
	}
}

// holdsPointer reports whether a value of type typ can hold a pointer the
// collector must trace.
func holdsPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return typ.Len() > 0 && holdsPointer(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if holdsPointer(typ.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true // pointers, strings, slices, maps, channels, funcs, interfaces
}

// The float payload shares the integer word: NewFloat(x).Float() must be x bit
// for bit, NaN payloads and signed zeros included, and a bool must come back.
func TestFloatAndBoolRoundTrip(t *testing.T) {
	roundTrips := func(bits uint64) bool {
		d := NewFloat(math.Float64frombits(bits))
		return d.K == KindFloat && math.Float64bits(d.Float()) == bits
	}
	for _, bits := range []uint64{
		0, 1 << 63, // +0.0, -0.0
		0x7FF0000000000000, 0xFFF0000000000000, // +Inf, -Inf
		0x7FF8000000000001, 0x7FF8000000000000, 0xFFF8000000000000, // quiet NaNs
		0x7FF0000000000001, 0x7FF00000DEADBEEF, 0xFFF7FFFFFFFFFFFF, // signalling NaNs with payloads
		1, 0x000FFFFFFFFFFFFF, 0x0010000000000000, // subnormals, smallest normal
		math.Float64bits(math.MaxFloat64), math.Float64bits(1 << 53), math.MaxUint64,
	} {
		if !roundTrips(bits) {
			t.Errorf("NewFloat(%#016x).Float() does not round-trip", bits)
		}
	}
	if err := quick.Check(roundTrips, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("NewBool(b).Bool() != b")
	}
	if NewBool(false) != (Datum{K: KindBool}) || NewInt(0).I != 0 {
		t.Error("FALSE and 0 must keep an all-zero payload")
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	cases := []struct {
		a, b Datum
		cmp  int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewFloat(2.5), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewDate(10), NewInt(10), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
	}
	for _, c := range cases {
		got, ok := Compare(c.a, c.b)
		if !ok {
			t.Errorf("Compare(%v,%v) not ok", c.a, c.b)
			continue
		}
		if got != c.cmp {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.cmp)
		}
	}
}

func TestCompareNullAndIncomparable(t *testing.T) {
	if _, ok := Compare(Null, NewInt(1)); ok {
		t.Error("Compare with NULL should not be ok")
	}
	if _, ok := Compare(NewInt(1), NewString("x")); ok {
		t.Error("Compare int/string should not be ok")
	}
	if _, ok := Compare(NewBool(true), NewInt(1)); ok {
		t.Error("Compare bool/int should not be ok")
	}
}

func TestTotalCompareNullsFirst(t *testing.T) {
	if TotalCompare(Null, NewInt(-1000)) != -1 {
		t.Error("NULL should sort first")
	}
	if TotalCompare(NewInt(-1000), Null) != 1 {
		t.Error("NULL should sort first (swapped)")
	}
	if TotalCompare(Null, Null) != 0 {
		t.Error("NULL == NULL under total order")
	}
}

func randDatum(r *rand.Rand) Datum {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return NewInt(int64(r.Intn(20) - 10))
	case 2:
		return NewFloat(float64(r.Intn(20))/2 - 5)
	case 3:
		return NewString(string(rune('a' + r.Intn(4))))
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

// Property: TotalCompare is antisymmetric and total.
func TestTotalCompareAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randDatum(r), randDatum(r)
		return TotalCompare(a, b) == -TotalCompare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TotalCompare is transitive over random triples.
func TestTotalCompareTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randDatum(r), randDatum(r), randDatum(r)
		if TotalCompare(a, b) <= 0 && TotalCompare(b, c) <= 0 {
			return TotalCompare(a, c) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTriLogic(t *testing.T) {
	// SQL three-valued truth tables.
	and := [][3]Tri{
		{True, True, True}, {True, False, False}, {True, Unknown, Unknown},
		{False, Unknown, False}, {False, False, False}, {Unknown, Unknown, Unknown},
	}
	for _, c := range and {
		if got := c[0].And(c[1]); got != c[2] {
			t.Errorf("%v AND %v = %v, want %v", c[0], c[1], got, c[2])
		}
		if got := c[1].And(c[0]); got != c[2] {
			t.Errorf("AND not commutative for %v,%v", c[0], c[1])
		}
	}
	or := [][3]Tri{
		{True, Unknown, True}, {False, Unknown, Unknown}, {False, False, False},
		{True, True, True}, {Unknown, Unknown, Unknown},
	}
	for _, c := range or {
		if got := c[0].Or(c[1]); got != c[2] {
			t.Errorf("%v OR %v = %v, want %v", c[0], c[1], got, c[2])
		}
	}
	if Unknown.Not() != Unknown || True.Not() != False || False.Not() != True {
		t.Error("NOT truth table wrong")
	}
}

// The key's text is a contract, not just its equalities: sorted aggregation
// orders groups by it, so a byte of difference reorders reports.
func TestAppendKeyText(t *testing.T) {
	for _, c := range []struct {
		d    Datum
		want string
	}{
		{Null, "n;"},
		{NewInt(42), "i42;"},
		{NewInt(-7), "i-7;"},
		{NewInt(1<<53 + 1), "i9007199254740992;"},
		{NewFloat(3), "i3;"},
		{NewFloat(1.5), "f1.5;"},
		{NewFloat(math.Copysign(0, -1)), "i0;"},
		{NewFloat(math.NaN()), "fNaN;"},
		{NewFloat(math.Inf(1)), "f+Inf;"},
		{NewDate(9000), "i9000;"},
		{NewString("abc"), "s3:abc"},
		{NewString(""), "s0:"},
		{NewBool(true), "b1;"},
		{NewBool(false), "b0;"},
	} {
		if got := string(c.d.AppendKey(nil)); got != c.want {
			t.Errorf("AppendKey(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestRowKeyFoldsNumericKinds(t *testing.T) {
	a := Row{NewInt(3), NewString("x")}
	b := Row{NewFloat(3.0), NewString("x")}
	if rowKey(a) != rowKey(b) {
		t.Error("rows equal under Compare must have equal keys")
	}
	c := Row{NewFloat(3.5), NewString("x")}
	if rowKey(a) == rowKey(c) {
		t.Error("distinct rows must not collide trivially")
	}
}

// Regression for the ISSUE-6 oracle-poisoning class: string values embedding
// separator-looking bytes must not alias differently-shaped rows. The old
// fmt-based encoding joined parts with "<kind>:<part>|", so a single string
// crafted to contain that framing could collide with a multi-column row.
func TestRowKeyStringFramingInjective(t *testing.T) {
	collisions := [][2]Row{
		{{NewString("a|5:b")}, {NewString("a"), NewString("b")}},
		{{NewString("ab")}, {NewString("a"), NewString("b")}},
		{{NewString("a;b")}, {NewString("a"), NewString("b")}},
		{{NewString("s1:a")}, {NewString("a")}},
		{{NewString(""), NewString("x")}, {NewString("x"), NewString("")}},
		{{NewString("1")}, {NewInt(1)}},
		{{NewString("3:'b'")}, {NewString("b")}},
	}
	for _, c := range collisions {
		if rowKey(c[0]) == rowKey(c[1]) {
			t.Errorf("rows %v and %v must not share key %q", c[0], c[1], rowKey(c[0]))
		}
	}
}

// keyEquivalent reports whether two rows should share a key: same length and
// every datum pair either Compare-equal or both NULL.
func keyEquivalent(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() || b[i].IsNull() {
			if a[i].IsNull() != b[i].IsNull() {
				return false
			}
			continue
		}
		if c, ok := Compare(a[i], b[i]); !ok || c != 0 {
			return false
		}
	}
	return true
}

// Brute-force injectivity check over a domain stuffed with bytes that stress
// the encoding: separators, digits, encoded-prefix look-alikes, empty
// strings, and numerics that fold across kinds.
func TestRowKeyInjectiveBruteForce(t *testing.T) {
	domain := []Datum{
		Null,
		NewInt(0), NewInt(1), NewInt(-1), NewInt(12),
		NewFloat(1), NewFloat(1.5), NewFloat(-0.5), NewDate(12),
		NewBool(true), NewBool(false),
		NewString(""), NewString("a"), NewString("1"), NewString("|"),
		NewString(":"), NewString(";"), NewString("a|1:b"), NewString("s1:a"),
		NewString("i1;"), NewString("n;"), NewString("1:"),
	}
	r := rand.New(rand.NewSource(6))
	var rows []Row
	for len(rows) < 400 {
		row := make(Row, 1+r.Intn(3))
		for i := range row {
			row[i] = domain[r.Intn(len(domain))]
		}
		rows = append(rows, row)
	}
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			sameKey := rowKey(rows[i]) == rowKey(rows[j])
			if sameKey != keyEquivalent(rows[i], rows[j]) {
				t.Fatalf("rows %v and %v: key collision=%v, equivalent=%v (keys %q vs %q)",
					rows[i], rows[j], sameKey, !sameKey, rowKey(rows[i]), rowKey(rows[j]))
			}
		}
	}
}

// AppendKey with a reused buffer must agree with fresh encodings: hash joins
// and aggregation build every key in one buffer reset per row.
func TestAppendKeyReusesBuffer(t *testing.T) {
	rows := []Row{
		{NewInt(1), NewString("a;b"), Null},
		{NewFloat(2.5), NewBool(true)},
		{},
	}
	buf := make([]byte, 0, 64)
	for _, row := range rows {
		buf = buf[:0]
		want := ""
		for _, d := range row {
			buf = d.AppendKey(buf)
			want += string(d.AppendKey(nil))
		}
		if string(buf) != want {
			t.Errorf("AppendKey into a reused buffer %q, fresh %q, for %v", buf, want, row)
		}
	}
}

// rowKey is a row's key: its values' AppendKey encodings in order. Rows that
// compare equal share it and — the encoding being prefix-free — rows that
// differ do not.
func rowKey(r Row) string {
	var buf []byte
	for _, d := range r {
		buf = d.AppendKey(buf)
	}
	return string(buf)
}

func TestDatumString(t *testing.T) {
	cases := map[string]Datum{
		"NULL":   Null,
		"42":     NewInt(42),
		"'a''b'": NewString("a'b"),
		"TRUE":   NewBool(true),
		"1.5":    NewFloat(1.5),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", d, got, want)
		}
	}
}

func TestTypeOf(t *testing.T) {
	if NewInt(1).TypeOf() != TypeInt || NewDate(1).TypeOf() != TypeDate ||
		Null.TypeOf() != TypeUnknown || NewBool(true).TypeOf() != TypeBool {
		t.Error("TypeOf mismatch")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewInt(2)}
	c := r.Clone()
	c[0] = NewInt(9)
	if reflect.DeepEqual(r, c) {
		t.Error("Clone must copy")
	}
	if r[0].I != 1 {
		t.Error("Clone mutated original")
	}
}
