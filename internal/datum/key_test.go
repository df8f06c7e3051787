package datum

import (
	"fmt"
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

// fuzzKeyRounds decodes rounds of key columns from fuzz bytes: data[0] picks
// the width (1 to 3), data[1] the number of rounds (1 to 4), and four bytes
// per round its row count (below 8 192, little-endian) and the range of its
// values (1 to 65 536). Each remaining byte picks the kind of one value, in
// turn: NULL, INT, FLOAT, DATE and INT 2^53 or 2^53+1 over one float64 image,
// a corner float (NaN payloads, the zeros, the infinities), a string or a bool.
func fuzzKeyRounds(data []byte) (width int, rounds [][]Vec) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	width = 1 + next()%3
	sizes := make([][2]int, 1+next()%4)
	for r := range sizes {
		sizes[r] = [2]int{(next() | next()<<8) % 8192, 1 + (next() | next()<<8)}
	}
	kinds := data
	if len(kinds) == 0 {
		kinds = []byte{1}
	}
	corners := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1 << 53}
	for _, size := range sizes {
		cols := make([]Vec, width)
		for ri := 0; ri < size[0]; ri++ {
			for c := range cols {
				x := int64(ri*(2*c+1)) % int64(size[1])
				var d Datum
				switch kinds[(ri*width+c)%len(kinds)] % 8 {
				case 0:
					d = Null
				case 1:
					d = NewInt(x)
				case 2:
					d = NewFloat(float64(x))
				case 3:
					d = NewDate(x)
				case 4:
					d = NewInt(1<<53 + x%2)
				case 5:
					d = NewFloat(corners[x%int64(len(corners))])
				case 6:
					d = NewString(fmt.Sprintf("s%d", x))
				default:
					d = NewBool(x%2 == 1)
				}
				cols[c].Append(d)
			}
		}
		rounds = append(rounds, cols)
	}
	return width, rounds
}

// FuzzKeyTableMatchesTextKeys holds the key table and the key index to a map
// keyed by the AppendKey text they replace, over one table and one index
// reused through rounds that grow and shrink: key numbers in first-seen order,
// Len, each key's parts (those of the row that first held it), each key's rows
// in row order with NULL-keyed rows left out, the NaN flag, and Lookup of every
// row of this round and of the round before. The seeds are committed under
// testdata/fuzz/FuzzKeyTableMatchesTextKeys, among them a build of 6 000
// distinct keys, which doubles the table's directory ten times, followed by a
// small reuse.
func FuzzKeyTableMatchesTextKeys(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		width, rounds := fuzzKeyRounds(data)
		slots := make([]int, width)
		for i := range slots {
			slots[i] = width - 1 - i // the key's parts in reverse column order
		}
		text := func(cols []Vec, ri int) (string, bool) {
			var buf []byte
			null := false
			for _, s := range slots {
				buf = cols[s].D[ri].AppendKey(buf)
				null = null || cols[s].D[ri].K == KindNull
			}
			return string(buf), null
		}
		var table KeyTable
		var index KeyIndex
		var prev []Vec
		for r, cols := range rounds {
			n := len(cols[0].D)
			table.Reset(width)
			ids, first := map[string]int32{}, []int{}
			for ri := 0; ri < n; ri++ {
				key, _ := text(cols, ri)
				want, ok := ids[key]
				if !ok {
					want = int32(len(first))
					ids[key], first = want, append(first, ri)
				}
				if got := table.Add(cols, slots, ri); got != want {
					t.Fatalf("round %d: row %d (%q) is key %d, want %d", r, ri, key, got, want)
				}
			}
			if table.Len() != len(first) {
				t.Fatalf("round %d: %d keys, want %d", r, table.Len(), len(first))
			}
			for k, ri := range first {
				for i, s := range slots {
					if got := table.Key(int32(k))[i]; got != cols[s].D[ri] {
						t.Fatalf("round %d: key %d part %d is %#v, want row %d's %#v", r, k, i, got, ri, cols[s].D[ri])
					}
				}
			}

			index.Build(cols, slots, n)
			rows, order, nan := map[string][]int32{}, []string{}, false
			for ri := 0; ri < n; ri++ {
				key, null := text(cols, ri)
				if null {
					continue
				}
				if _, ok := rows[key]; !ok {
					order = append(order, key)
				}
				rows[key] = append(rows[key], int32(ri))
				_, isNaN := KeyFlags(cols, slots, ri)
				nan = nan || isNaN
			}
			if index.Keys.Len() != len(order) || len(index.Start) != len(order)+1 || index.NaN != nan {
				t.Fatalf("round %d: index has %d keys, %d starts, NaN %v; want %d keys, NaN %v",
					r, index.Keys.Len(), len(index.Start), index.NaN, len(order), nan)
			}
			for k, key := range order {
				if got := index.Rows[index.Start[k]:index.Start[k+1]]; !slices.Equal(got, rows[key]) {
					t.Fatalf("round %d: key %d (%q) has rows %v, want %v", r, k, key, got, rows[key])
				}
			}
			for _, probe := range [][]Vec{cols, prev} {
				for ri := 0; probe != nil && ri < len(probe[0].D); ri++ {
					if key, null := text(probe, ri); !null {
						if got := index.Lookup(probe, slots, ri); !slices.Equal(got, rows[key]) {
							t.Fatalf("round %d: Lookup(%q) = %v, want %v", r, key, got, rows[key])
						}
					}
				}
			}
			prev = cols
		}
	})
}

// BenchmarkKeyIndex builds a key index over 64 Ki rows and probes it with
// every row: the kernel under every keyed join. The INT key column holds
// 16 Ki distinct keys, four rows each; a second, string column derived from
// the first widens the key without adding keys.
func BenchmarkKeyIndex(b *testing.B) {
	const n = 1 << 16
	cols := make([]Vec, 2)
	for i := 0; i < n; i++ {
		k := i * 7919 % (n / 4)
		cols[0].Append(NewInt(int64(k)))
		cols[1].Append(NewString(fmt.Sprintf("k%d", k%64)))
	}
	for _, slots := range [][]int{{0}, {0, 1}} {
		b.Run(fmt.Sprintf("%d-columns", len(slots)), func(b *testing.B) {
			var x KeyIndex
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x.Build(cols, slots, n)
				for ri := 0; ri < n; ri++ {
					if len(x.Lookup(cols, slots, ri)) != 4 {
						b.Fatalf("row %d finds %d rows, want 4", ri, len(x.Lookup(cols, slots, ri)))
					}
				}
			}
		})
	}
}
