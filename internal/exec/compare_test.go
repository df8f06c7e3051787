package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// NormalizeRows returns a copy of rows sorted by the oracle's order on rows
// (rowCmp), equal rows in their input order: the canonical multiset form. Two
// results are equal multisets iff their normalized forms are positionally
// equal under that order.
func NormalizeRows(rows []datum.Row) []datum.Row {
	out := slices.Clone(rows)
	slices.SortStableFunc(out, rowCmp)
	return out
}

// rowKey is the string key the multiset oracle once counted rows by: the
// values' datum.AppendKey encodings in order, injective and prefix-free. Its
// equality is what rowCmp's must be.
func rowKey(r datum.Row) string {
	var buf []byte
	for _, d := range r {
		buf = d.AppendKey(buf)
	}
	return string(buf)
}

// keyDiffSummary is the string-key reference for EqualMultisets and
// DiffSummary: the map of key counts they were before comparing rows in
// place, which yields "" exactly for equal multisets.
func keyDiffSummary(a, b []datum.Row) string {
	if len(a) != len(b) {
		return fmt.Sprintf("row count mismatch: %d vs %d", len(a), len(b))
	}
	counts := make(map[string]int, len(a))
	for _, r := range a {
		counts[rowKey(r)]++
	}
	for _, r := range b {
		k := rowKey(r)
		counts[k]--
		if counts[k] < 0 {
			return fmt.Sprintf("row %v appears more often in the second result", r)
		}
	}
	return ""
}

// bruteForceEqualMultisets is the obviously-correct O(n^2) reference: greedy
// bipartite matching on row keys.
func bruteForceEqualMultisets(a, b []datum.Row) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, ra := range a {
		found := false
		for j, rb := range b {
			if !used[j] && rowKey(ra) == rowKey(rb) {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// randomRows draws rows of the given width from a small value domain (ints,
// floats, strings, NULLs) so that duplicates and cross-type equalities
// (1 vs 1.0) occur often.
func randomRows(rng *rand.Rand, n, width int) []datum.Row {
	out := make([]datum.Row, n)
	for i := range out {
		row := make(datum.Row, width)
		for j := range row {
			switch rng.Intn(4) {
			case 0:
				row[j] = datum.NewInt(int64(rng.Intn(3)))
			case 1:
				row[j] = datum.NewFloat(float64(rng.Intn(3)))
			case 2:
				row[j] = datum.NewString(string(rune('a' + rng.Intn(2))))
			default:
				row[j] = datum.Null
			}
		}
		out[i] = row
	}
	return out
}

// TestEqualMultisetsProperty checks the multiset oracle against the
// brute-force matcher and DiffSummary against the string-key reference on
// random row sets: permutations must compare equal, and random independent
// draws must agree with the references either way.
func TestEqualMultisetsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(8)
		w := 1 + rng.Intn(3)
		a := randomRows(rng, n, w)

		// A shuffled copy is always an equal multiset.
		perm := make([]datum.Row, n)
		copy(perm, a)
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if !EqualMultisets(a, perm) {
			t.Fatalf("trial %d: shuffled copy not equal: %v vs %v", trial, a, perm)
		}

		// An independent draw from the same small domain collides often
		// enough to exercise both outcomes.
		b := randomRows(rng, n, w)
		got := EqualMultisets(a, b)
		want := bruteForceEqualMultisets(a, b)
		if got != want {
			t.Fatalf("trial %d: EqualMultisets=%v, brute force=%v\na=%v\nb=%v", trial, got, want, a, b)
		}
		if d, want := DiffSummary(a, b), keyDiffSummary(a, b); d != want {
			t.Fatalf("trial %d: DiffSummary %q, string keys %q", trial, d, want)
		}
	}
}

// ---- RootOrder --------------------------------------------------------------

func sortPlan(child *physical.Expr, keys ...logical.SortKey) *physical.Expr {
	return &physical.Expr{Op: physical.OpSort, Children: []*physical.Expr{child}, Keys: keys}
}

func limitPlan(child *physical.Expr, n int64) *physical.Expr {
	return &physical.Expr{Op: physical.OpLimit, Children: []*physical.Expr{child}, N: n}
}

func TestRootOrder(t *testing.T) {
	scan := scanT1() // cols 1 (slot 0), 2 (slot 1)

	t.Run("unsorted scan", func(t *testing.T) {
		o := RootOrder(scan)
		if o.Sorted || o.HasLimit {
			t.Errorf("scan order = %+v, want unsorted, no limit", o)
		}
	})

	t.Run("sort at root", func(t *testing.T) {
		o := RootOrder(sortPlan(scan, logical.SortKey{Col: 2, Desc: true}, logical.SortKey{Col: 1}))
		if !o.Sorted || len(o.Slots) != 2 || o.Slots[0] != 1 || o.Slots[1] != 0 {
			t.Fatalf("order = %+v, want slots [1 0]", o)
		}
		if !o.Descs[0] || o.Descs[1] {
			t.Errorf("descs = %v, want [true false]", o.Descs)
		}
		if o.HasLimit || o.LimitBelowSort {
			t.Errorf("order = %+v, want no limit", o)
		}
	})

	t.Run("limit above sort", func(t *testing.T) {
		o := RootOrder(limitPlan(sortPlan(scan, logical.SortKey{Col: 1}), 2))
		if !o.Sorted || !o.HasLimit || o.LimitBelowSort {
			t.Errorf("order = %+v, want sorted, limit above sort", o)
		}
	})

	t.Run("limit below sort", func(t *testing.T) {
		o := RootOrder(sortPlan(limitPlan(scan, 2), logical.SortKey{Col: 1}))
		if !o.Sorted || !o.HasLimit || !o.LimitBelowSort {
			t.Errorf("order = %+v, want sorted with limit below sort", o)
		}
	})

	t.Run("projection renames sort key", func(t *testing.T) {
		proj := &physical.Expr{
			Op: physical.OpProject, Children: []*physical.Expr{sortPlan(scan, logical.SortKey{Col: 2})},
			Projs: []logical.ProjItem{
				{Out: 9, E: &scalar.ColRef{ID: 2}},
				{Out: 10, E: &scalar.ColRef{ID: 1}},
			},
		}
		o := RootOrder(proj)
		if !o.Sorted || len(o.Slots) != 1 || o.Slots[0] != 0 {
			t.Errorf("order = %+v, want key lifted to slot 0", o)
		}
	})

	t.Run("projection drops sort key", func(t *testing.T) {
		proj := &physical.Expr{
			Op: physical.OpProject, Children: []*physical.Expr{sortPlan(scan, logical.SortKey{Col: 2})},
			Projs: []logical.ProjItem{{Out: 9, E: &scalar.ColRef{ID: 1}}},
		}
		if o := RootOrder(proj); o.Sorted {
			t.Errorf("order = %+v, want unsorted (key projected away)", o)
		}
	})

	t.Run("projection computes over sort key", func(t *testing.T) {
		proj := &physical.Expr{
			Op: physical.OpProject, Children: []*physical.Expr{sortPlan(scan, logical.SortKey{Col: 2})},
			Projs: []logical.ProjItem{{Out: 9, E: &scalar.Arith{
				Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: datum.NewInt(1)}}}},
		}
		if o := RootOrder(proj); o.Sorted {
			t.Errorf("order = %+v, want unsorted (key computed over)", o)
		}
	})

	t.Run("trailing key truncated, prefix kept", func(t *testing.T) {
		proj := &physical.Expr{
			Op: physical.OpProject, Children: []*physical.Expr{sortPlan(scan,
				logical.SortKey{Col: 1}, logical.SortKey{Col: 2})},
			Projs: []logical.ProjItem{{Out: 9, E: &scalar.ColRef{ID: 1}}},
		}
		o := RootOrder(proj)
		if !o.Sorted || len(o.Slots) != 1 || o.Slots[0] != 0 {
			t.Errorf("order = %+v, want one-key prefix at slot 0", o)
		}
	})

	t.Run("sort under join does not order the root", func(t *testing.T) {
		join := joinPlan(physical.OpHashJoin, physical.JoinInner)
		join.Children[0] = sortPlan(join.Children[0], logical.SortKey{Col: 1})
		if o := RootOrder(join); o.Sorted {
			t.Errorf("order = %+v, want unsorted (sort buried under join)", o)
		}
	})
}

// ---- CompareResults ---------------------------------------------------------

func intRows(vals ...int64) []datum.Row {
	out := make([]datum.Row, len(vals))
	for i, v := range vals {
		out[i] = datum.Row{datum.NewInt(v)}
	}
	return out
}

func TestCompareResults(t *testing.T) {
	unordered := PlanOrder{}
	limited := PlanOrder{HasLimit: true}
	asc := PlanOrder{Sorted: true, Slots: []int{0}, Descs: []bool{false}}
	ascLimited := PlanOrder{Sorted: true, Slots: []int{0}, Descs: []bool{false}, HasLimit: true}
	ascLimitBelow := PlanOrder{Sorted: true, Slots: []int{0}, Descs: []bool{false},
		HasLimit: true, LimitBelowSort: true}

	cases := []struct {
		name       string
		base, alt  []datum.Row
		bo, ao     PlanOrder
		want       Verdict
		wantDetail string // substring; "" means don't check
	}{
		{name: "equal multisets, unordered",
			base: intRows(1, 2, 3), alt: intRows(3, 1, 2), bo: unordered, ao: unordered,
			want: VerdictEqual},
		{name: "count mismatch is always a bug",
			base: intRows(1, 2, 3), alt: intRows(1, 2), bo: limited, ao: limited,
			want: VerdictMismatch, wantDetail: "row count mismatch"},
		{name: "different rows, unordered, no limit",
			base: intRows(1, 2, 3), alt: intRows(1, 2, 4), bo: unordered, ao: unordered,
			want: VerdictMismatch},
		{name: "different rows under LIMIT without order",
			base: intRows(1, 2, 3), alt: intRows(1, 2, 4), bo: limited, ao: limited,
			want: VerdictUndetermined, wantDetail: "LIMIT without a total order"},
		{name: "ordered, key sequences diverge",
			base: intRows(1, 2, 3), alt: intRows(3, 2, 1), bo: asc, ao: asc,
			want: VerdictMismatch, wantDetail: "ordered results diverge at row 0"},
		{name: "ordered divergence explained by LIMIT below sort",
			base: intRows(1, 2, 3), alt: intRows(2, 3, 4), bo: ascLimitBelow, ao: asc,
			want: VerdictUndetermined, wantDetail: "LIMIT below the ORDER BY"},
		{name: "ordered, equal keys and multisets",
			base: intRows(1, 2, 2), alt: intRows(1, 2, 2), bo: asc, ao: asc,
			want: VerdictEqual},
		{name: "ordered, equal keys but multiset differs at LIMIT boundary",
			base: []datum.Row{{datum.NewInt(1), datum.NewInt(10)}, {datum.NewInt(2), datum.NewInt(20)}},
			alt:  []datum.Row{{datum.NewInt(1), datum.NewInt(10)}, {datum.NewInt(2), datum.NewInt(21)}},
			bo:   ascLimited, ao: ascLimited,
			want: VerdictUndetermined, wantDetail: "LIMIT boundary"},
		{name: "ordered, equal keys but multiset differs, no limit",
			base: []datum.Row{{datum.NewInt(1), datum.NewInt(10)}, {datum.NewInt(2), datum.NewInt(20)}},
			alt:  []datum.Row{{datum.NewInt(1), datum.NewInt(10)}, {datum.NewInt(2), datum.NewInt(21)}},
			bo:   asc, ao: asc,
			want: VerdictMismatch},
		{name: "only one side ordered falls back to multiset compare",
			base: intRows(3, 1, 2), alt: intRows(1, 2, 3), bo: asc, ao: unordered,
			want: VerdictEqual},
		{name: "tie permutation within ordered results is legal",
			base: []datum.Row{{datum.NewInt(1), datum.NewInt(10)}, {datum.NewInt(1), datum.NewInt(20)}},
			alt:  []datum.Row{{datum.NewInt(1), datum.NewInt(20)}, {datum.NewInt(1), datum.NewInt(10)}},
			bo:   asc, ao: asc,
			want: VerdictEqual},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, detail := CompareResults(tc.base, tc.bo, tc.alt, tc.ao)
			if got != tc.want {
				t.Fatalf("verdict = %s (%s), want %s", got, detail, tc.want)
			}
			if tc.wantDetail != "" && !strings.Contains(detail, tc.wantDetail) {
				t.Errorf("detail = %q, want substring %q", detail, tc.wantDetail)
			}
		})
	}
}

// TestCompareResultsCatchesFlippedSort is the oracle-level regression for the
// flip-sort-dir mutant: same multiset, reversed order, both roots sorted.
// The multiset oracle alone would call this equal.
func TestCompareResultsCatchesFlippedSort(t *testing.T) {
	asc := PlanOrder{Sorted: true, Slots: []int{0}, Descs: []bool{false}}
	desc := PlanOrder{Sorted: true, Slots: []int{0}, Descs: []bool{true}}
	base := intRows(1, 2, 3)
	alt := intRows(3, 2, 1)
	if !EqualMultisets(base, alt) {
		t.Fatal("setup: rows must be equal as multisets")
	}
	got, _ := CompareResults(base, asc, alt, desc)
	if got != VerdictMismatch {
		t.Fatalf("verdict = %s, want mismatch for reversed ordered results", got)
	}
}

// fuzzCorners are the values FuzzEqualMultisets draws results from: the
// comparison kernel's corners (NULL, NaN, the two zeros, 2^53 against 2^53+1,
// INT 1 against FLOAT 1.0 and DATE 1, the infinities, the int64 extremes),
// strings that look like key framing or numbers, and both bools.
var fuzzCorners = []datum.Datum{
	datum.Null,
	datum.NewFloat(math.NaN()), datum.NewFloat(math.Float64frombits(0x7ff8000000000001)),
	datum.NewFloat(0), datum.NewFloat(math.Copysign(0, -1)), datum.NewInt(0),
	datum.NewInt(1 << 53), datum.NewInt(1<<53 + 1), datum.NewFloat(1 << 53),
	datum.NewInt(1), datum.NewFloat(1), datum.NewDate(1), datum.NewFloat(1.5),
	datum.NewFloat(math.Inf(1)), datum.NewFloat(math.Inf(-1)),
	datum.NewInt(math.MaxInt64), datum.NewInt(math.MinInt64),
	datum.NewString(""), datum.NewString("1"), datum.NewString("i1;"), datum.NewString("s1:a"),
	datum.NewString("a;b"), datum.NewString(":"), datum.NewString("1:"),
	datum.NewBool(false), datum.NewBool(true),
}

// fuzzTwin returns a value the oracle must take for d written another way:
// INT n as FLOAT n, FLOAT n as DATE n, DATE n as INT n, a NaN with another
// payload; anything else as itself.
func fuzzTwin(d datum.Datum) datum.Datum {
	switch d.K {
	case datum.KindInt:
		return datum.NewFloat(float64(d.I))
	case datum.KindFloat:
		switch f := d.Float(); {
		case f != f:
			return datum.NewFloat(math.Float64frombits(uint64(d.I) ^ 1))
		case f == math.Trunc(f) && math.Abs(f) < 1<<62:
			return datum.NewDate(int64(f))
		}
	case datum.KindDate:
		return datum.NewInt(d.I)
	}
	return d
}

// fuzzResults decodes two results from fuzz bytes: data[0] picks the width
// (1 to 3), data[1] the row counts (its low three bits a's, the next three
// b's) and whether b instead mirrors a (bit 6): a's rows rotated by data[2],
// each value replaced by its twin when its byte is odd. Every other byte picks
// a corner value.
func fuzzResults(data []byte) (a, b []datum.Row) {
	if len(data) < 3 {
		return nil, nil
	}
	w, na, nb, mirror, rot := 1+int(data[0]%3), int(data[1]%8), int(data[1]/8%8), data[1]&64 != 0, int(data[2])
	vals := data[3:]
	next := func() byte {
		if len(vals) == 0 {
			return 0
		}
		v := vals[0]
		vals = vals[1:]
		return v
	}
	draw := func(n int) []datum.Row {
		rows := make([]datum.Row, n)
		for i := range rows {
			rows[i] = make(datum.Row, w)
			for j := range rows[i] {
				rows[i][j] = fuzzCorners[int(next())%len(fuzzCorners)]
			}
		}
		return rows
	}
	a = draw(na)
	if !mirror {
		return a, draw(nb)
	}
	b = make([]datum.Row, na)
	for i := range b {
		b[i] = slices.Clone(a[(i+rot)%na])
		for j := range b[i] {
			if next()&1 == 1 {
				b[i][j] = fuzzTwin(b[i][j])
			}
		}
	}
	return a, b
}

// FuzzEqualMultisets holds the oracle's in-place comparison to the string-key
// reference over results drawn from the corner values: EqualMultisets agrees
// with it, DiffSummary says what it says byte for byte (reports quote it) and
// is empty exactly when the results are equal, and NormalizeRows puts equal
// multisets in positionally equal order. The corners are committed as seeds
// under testdata/fuzz/FuzzEqualMultisets, with three for the comparison's
// positional first pass: results equal row for row, one multiset in two
// orders that part at row 3, and results that differ only in their last row.
func FuzzEqualMultisets(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzResults(data)
		want := keyDiffSummary(a, b)
		equal := EqualMultisets(a, b)
		if equal != (want == "") {
			t.Fatalf("EqualMultisets = %v, string keys say %q\na=%v\nb=%v", equal, want, a, b)
		}
		if got := DiffSummary(a, b); got != want {
			t.Fatalf("DiffSummary = %q, string keys %q\na=%v\nb=%v", got, want, a, b)
		}
		if len(a) == len(b) {
			na, nb := NormalizeRows(a), NormalizeRows(b)
			same := true
			for i := range na {
				same = same && rowCmp(na[i], nb[i]) == 0
			}
			if same != equal {
				t.Fatalf("normalized forms equal %v, multisets equal %v\na=%v\nb=%v", same, equal, na, nb)
			}
		}
	})
}
