package datum

import (
	"math/rand"
	"testing"
)

func TestVecAppendTracksNulls(t *testing.T) {
	var v Vec
	r := rand.New(rand.NewSource(1))
	want := make([]bool, 0, 200)
	for i := 0; i < 200; i++ {
		if r.Intn(3) == 0 {
			v.Append(Null)
			want = append(want, true)
		} else {
			v.Append(NewInt(int64(i)))
			want = append(want, false)
		}
	}
	if v.Len() != 200 {
		t.Fatalf("Len = %d, want 200", v.Len())
	}
	for i, w := range want {
		if v.IsNull(i) != w {
			t.Fatalf("IsNull(%d) = %v, want %v", i, v.IsNull(i), w)
		}
		if v.D[i].IsNull() != w {
			t.Fatalf("D[%d] null mismatch", i)
		}
	}
}

func TestVecResetRetainsNothing(t *testing.T) {
	var v Vec
	for i := 0; i < 70; i++ {
		v.Append(Null)
	}
	v.Reset()
	if v.Len() != 0 {
		t.Fatalf("Len after Reset = %d", v.Len())
	}
	// A value appended at position 0 after Reset must not read as the NULL
	// that was there before.
	v.Append(NewInt(5))
	if v.IsNull(0) {
		t.Fatal("stale NULL survived Reset")
	}
}

func TestColumnVecsTransposes(t *testing.T) {
	rows := []Row{
		{NewInt(1), NewString("a")},
		{Null, NewString("b")},
		{NewInt(3), Null},
	}
	vecs := ColumnVecs(rows, 2)
	if len(vecs) != 2 || vecs[0].Len() != 3 || vecs[1].Len() != 3 {
		t.Fatalf("bad shape: %d vecs", len(vecs))
	}
	if vecs[0].D[0].I != 1 || !vecs[0].IsNull(1) || vecs[0].D[2].I != 3 {
		t.Error("column 0 wrong")
	}
	if vecs[1].D[0].Str() != "a" || vecs[1].D[1].Str() != "b" || !vecs[1].IsNull(2) {
		t.Error("column 1 wrong")
	}
}
