package datum

import (
	"math"
	"slices"
	"testing"
)

// fuzzDatum makes a datum of every kind from fuzzer input: the payload word
// is an INT or DATE value, a FLOAT's bits (NaN payloads included) or a BOOL.
func fuzzDatum(kind uint8, i int64, s string) Datum {
	switch kind % 6 {
	case 0:
		return Null
	case 1:
		return NewInt(i)
	case 2:
		return Datum{K: KindFloat, I: i}
	case 3:
		return NewString(s)
	case 4:
		return NewBool(i&1 == 1)
	default:
		return NewDate(i)
	}
}

// FuzzKeyMatchesAppendKey pins the binary key to the text key it replaces:
// two parts are KeyEqual exactly when their AppendKey encodings are equal,
// and KeyEqual parts hash alike.
func FuzzKeyMatchesAppendKey(f *testing.F) {
	bits := func(v float64) int64 { return int64(math.Float64bits(v)) }
	for _, seed := range []struct {
		ka uint8
		ia int64
		sa string
		kb uint8
		ib int64
		sb string
	}{
		{2, bits(math.NaN()), "", 2, 0x7ff0000000000001, ""},  // two NaN payloads
		{2, -1, "", 2, bits(math.NaN()), ""},                  // a negative quiet NaN
		{2, bits(math.Copysign(0, -1)), "", 2, 0, ""},         // -0 and +0
		{2, bits(math.Copysign(0, -1)), "", 1, 0, ""},         // -0.0 and INT 0
		{2, bits(math.Inf(1)), "", 2, bits(math.Inf(-1)), ""}, // +Inf and -Inf
		{1, 1<<53 + 1, "", 1, 1 << 53, ""},                    // one float64 image
		{1, 1<<53 - 1, "", 2, bits(1<<53 - 1), ""},            // INT and FLOAT below 2^53
		{5, 1 << 53, "", 2, bits(1 << 53), ""},                // DATE and FLOAT
		{1, math.MinInt64, "", 2, bits(-(1 << 63)), ""},       // the int64 edge
		{3, 0, "s1:", 3, 0, "s1:s"},                           // strings of separator bytes
		{3, 0, "i1;", 1, 1, ""},                               // a string spelling a key
		{3, 0, "", 0, 0, ""},                                  // empty string and NULL
		{4, 1, "", 4, 3, ""},                                  // bools by value
		{4, 0, "", 1, 0, ""},                                  // FALSE and INT 0
		{0, 5, "x", 0, 7, "y"},                                // NULL and NULL
	} {
		f.Add(seed.ka, seed.ia, seed.sa, seed.kb, seed.ib, seed.sb)
	}
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, sa string, kb uint8, ib int64, sb string) {
		a, b := fuzzDatum(ka, ia, sa), fuzzDatum(kb, ib, sb)
		eq := KeyEqual(&a, &b)
		if text := string(a.AppendKey(nil)) == string(b.AppendKey(nil)); eq != text {
			t.Fatalf("KeyEqual(%#v, %#v) = %v, but AppendKey texts %q and %q", a, b, eq, a.AppendKey(nil), b.AppendKey(nil))
		}
		if eq && KeyHash(&a) != KeyHash(&b) {
			t.Fatalf("KeyEqual parts %#v and %#v hash to %x and %x", a, b, KeyHash(&a), KeyHash(&b))
		}
	})
}

// TestKeyIndexGroupsByKey: keys are numbered in first-seen order, rows with a
// NULL key part are left out, each key's rows are in row order, a probe finds
// its key across kinds, and a NaN key part is flagged.
func TestKeyIndexGroupsByKey(t *testing.T) {
	ni, nf, s := NewInt, NewFloat, NewString
	cols := []Vec{
		{D: []Datum{ni(7), nf(2), ni(7), Null, nf(2), ni(7), ni(3)}},
		{D: []Datum{s("a"), s("b"), s("a"), s("a"), s("b"), s("c"), Null}},
	}
	var x KeyIndex
	x.Build(cols, []int{0, 1}, 7)
	if x.Keys.Len() != 3 || x.NaN {
		t.Fatalf("%d keys, NaN %v; want 3 keys (7,a) (2,b) (7,c) and no NaN", x.Keys.Len(), x.NaN)
	}
	for k, want := range [][]int32{{0, 2}, {1, 4}, {5}} {
		if got := x.Rows[x.Start[k]:x.Start[k+1]]; !slices.Equal(got, want) {
			t.Errorf("key %d (%v): rows %v, want %v", k, x.Keys.Key(int32(k)), got, want)
		}
	}
	probe := []Vec{{D: []Datum{NewDate(2), nf(7)}}, {D: []Datum{s("b"), s("b")}}}
	if got := x.Lookup(probe, []int{0, 1}, 0); !slices.Equal(got, []int32{1, 4}) {
		t.Errorf("DATE 2, 'b' finds rows %v, want [1 4]", got)
	}
	if got := x.Lookup(probe, []int{0, 1}, 1); got != nil {
		t.Errorf("FLOAT 7, 'b' finds rows %v, want none", got)
	}
	cols[0].D[6] = nf(math.NaN())
	x.Build(cols, []int{0}, 7) // reused: one column now
	if x.Keys.Len() != 3 || !x.NaN {
		t.Fatalf("rebuilt: %d keys, NaN %v; want 7, 2 and NaN, flagged", x.Keys.Len(), x.NaN)
	}
}
