package scalar

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// colSetEdgeIDs are the ids where the representation changes: both ends of
// each inline word, the first bit that needs overflow storage, the next word
// boundary past it, and ids far beyond.
var colSetEdgeIDs = []ColumnID{
	0, 1, 63, 64, 64*colSetInline - 1, 64 * colSetInline, 64*colSetInline + 63,
	64 * (colSetInline + 1), 1000, 1023, 1024, 5000,
}

func modelSorted(m map[ColumnID]bool) []ColumnID {
	out := make([]ColumnID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// requireMatchesModel holds every read-only method of s to the map model.
func requireMatchesModel(t *testing.T, s ColSet, model map[ColumnID]bool, probe []ColumnID) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", s.Len(), len(model))
	}
	want := modelSorted(model)
	if got := s.Sorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Sorted = %v, model %v", got, want)
	}
	var visited []ColumnID
	s.ForEach(func(id ColumnID) { visited = append(visited, id) })
	if len(visited) != len(want) || (len(want) > 0 && !reflect.DeepEqual(visited, want)) {
		t.Fatalf("ForEach visited %v, model %v", visited, want)
	}
	for _, id := range probe {
		if s.Contains(id) != model[id] {
			t.Fatalf("Contains(%d) = %v, model %v", id, s.Contains(id), model[id])
		}
		rank := sort.Search(len(want), func(i int) bool { return want[i] >= id })
		if s.Rank(id) != rank {
			t.Fatalf("Rank(%d) = %d, model %d (members %v)", id, s.Rank(id), rank, want)
		}
	}
}

// TestColSetAgainstModel drives random operation sequences (Add, Contains,
// Rank, Len, Sorted, ForEach, SubsetOf, Intersects, Equals, Union) against a
// map[ColumnID]bool reference, drawing ids from the representation's edges as
// well as uniformly.
func TestColSetAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pick := func() ColumnID {
		switch rng.Intn(3) {
		case 0:
			return colSetEdgeIDs[rng.Intn(len(colSetEdgeIDs))]
		case 1:
			return ColumnID(rng.Intn(64 * (colSetInline + 2)))
		}
		return ColumnID(rng.Intn(6000))
	}
	build := func(n int) (ColSet, map[ColumnID]bool) {
		var s ColSet
		model := map[ColumnID]bool{}
		for i := 0; i < n; i++ {
			id := pick()
			s.Add(id)
			model[id] = true
		}
		return s, model
	}
	fixed := append([]ColumnID{-1, -64, 6001, 1 << 40}, colSetEdgeIDs...)
	for round := 0; round < 300; round++ {
		a, am := build(rng.Intn(12))
		b, bm := build(rng.Intn(12))
		probe := fixed[:len(fixed):len(fixed)]
		for i := 0; i < 16; i++ {
			probe = append(probe, pick())
		}
		requireMatchesModel(t, a, am, probe)
		requireMatchesModel(t, b, bm, probe)

		subset, intersects := true, false
		for id := range am {
			if !bm[id] {
				subset = false
			} else {
				intersects = true
			}
		}
		if a.SubsetOf(b) != subset {
			t.Fatalf("%v SubsetOf %v = %v, model %v", a.Sorted(), b.Sorted(), a.SubsetOf(b), subset)
		}
		if a.Intersects(b) != intersects || b.Intersects(a) != intersects {
			t.Fatalf("%v Intersects %v = %v/%v, model %v", a.Sorted(), b.Sorted(), a.Intersects(b), b.Intersects(a), intersects)
		}
		if want := reflect.DeepEqual(modelSorted(am), modelSorted(bm)); a.Equals(b) != want {
			t.Fatalf("%v Equals %v = %v, model %v", a.Sorted(), b.Sorted(), a.Equals(b), want)
		}

		um := map[ColumnID]bool{}
		for id := range am {
			um[id] = true
		}
		for id := range bm {
			um[id] = true
		}
		u := a.Union(b)
		requireMatchesModel(t, u, um, probe)
		// The union owns its storage: growing it in every word must leave
		// both operands as they were.
		for _, id := range colSetEdgeIDs {
			u.Add(id)
		}
		requireMatchesModel(t, a, am, probe)
		requireMatchesModel(t, b, bm, probe)
	}
}

func TestColSetZeroValueIsEmpty(t *testing.T) {
	var zero ColSet
	for name, s := range map[string]ColSet{"zero": zero, "NewColSet()": NewColSet(), "union of zeros": zero.Union(zero)} {
		if s.Len() != 0 || len(s.Sorted()) != 0 || s.Contains(0) || s.Intersects(s) || !s.SubsetOf(s) || !s.Equals(zero) {
			t.Errorf("%s is not an empty set", name)
		}
		s.ForEach(func(id ColumnID) { t.Errorf("%s: ForEach visited %d", name, id) })
	}
	// A set that grew and one that never did compare by members only.
	grown := NewColSet(1, 2000)
	small := NewColSet(1, 2000)
	other := NewColSet(1)
	if !grown.Equals(small) || grown.Equals(other) || !other.SubsetOf(grown) || grown.SubsetOf(other) {
		t.Error("sets with overflow words compare wrong against sets without")
	}
}

func TestColSetAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) did not panic")
		}
	}()
	var s ColSet
	s.Add(-1)
}
