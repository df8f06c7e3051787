package catalog

import (
	"sync"
	"testing"

	"qtrtest/internal/datum"
)

func columnarFixture() *Table {
	return &Table{
		Name: "t",
		Columns: []Column{
			{Name: "a", Type: datum.TypeInt},
			{Name: "b", Type: datum.TypeString, Nullable: true},
		},
		Rows: []datum.Row{
			{datum.NewInt(1), datum.NewString("x")},
			{datum.NewInt(2), datum.Null},
			{datum.NewInt(3), datum.NewString("z")},
		},
	}
}

func TestColumnDataTransposesRows(t *testing.T) {
	tbl := columnarFixture()
	vecs := tbl.ColumnData()
	if len(vecs) != 2 {
		t.Fatalf("got %d vecs, want 2", len(vecs))
	}
	for c := range vecs {
		if vecs[c].Len() != len(tbl.Rows) {
			t.Fatalf("column %d has %d values, want %d", c, vecs[c].Len(), len(tbl.Rows))
		}
		for i, row := range tbl.Rows {
			if datum.TotalCompare(vecs[c].D[i], row[c]) != 0 {
				t.Fatalf("vecs[%d].D[%d] = %v, want %v", c, i, vecs[c].D[i], row[c])
			}
		}
	}
	if !vecs[1].IsNull(1) || vecs[1].IsNull(0) {
		t.Error("NULL positions wrong")
	}
	idx := tbl.SeqIdx()
	if len(idx) != 3 || idx[0] != 0 || idx[2] != 2 {
		t.Errorf("SeqIdx = %v", idx)
	}
}

func TestJoinIndexGroupsRowsByKey(t *testing.T) {
	tbl := &Table{
		Name:    "t",
		Columns: []Column{{Name: "k", Type: datum.TypeInt, Nullable: true}},
		Rows: []datum.Row{
			{datum.NewInt(7)}, {datum.NewInt(5)}, {datum.Null}, {datum.NewInt(7)},
		},
	}
	idx := tbl.JoinIndex([]int{0})
	if idx.Keys.Len() != 2 {
		t.Fatalf("got %d keys, want 2 (NULL keys are not indexed)", idx.Keys.Len())
	}
	// FLOAT 7.0 is the key INT 7 is.
	probe := []datum.Vec{{D: []datum.Datum{datum.NewFloat(7)}}}
	if g := idx.Lookup(probe, []int{0}, 0); len(g) != 2 || g[0] != 0 || g[1] != 3 {
		t.Errorf("group for key 7 = %v, want [0 3] in row order", g)
	}
	// Distinct key-column sets build distinct indexes; repeated calls share.
	if tbl.JoinIndex([]int{0}) != idx {
		t.Error("same slots must return the cached index")
	}
}

// The cache must be safe under concurrent first use — campaign workers share
// one catalog.
func TestColumnDataConcurrent(t *testing.T) {
	tbl := columnarFixture()
	var wg sync.WaitGroup
	vecs := make([][]datum.Vec, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vecs[g] = tbl.ColumnData()
			_ = tbl.SeqIdx()
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		if &vecs[g][0] != &vecs[0][0] {
			t.Fatal("concurrent callers must observe the same cached vectors")
		}
	}
}

// Same contract for the join index: concurrent hash joins over a shared
// catalog must get one index per key-column set, built exactly once.
func TestJoinIndexConcurrent(t *testing.T) {
	tbl := columnarFixture()
	var wg sync.WaitGroup
	idxs := make([]*datum.KeyIndex, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			idxs[g] = tbl.JoinIndex([]int{0})
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		if idxs[g] != idxs[0] {
			t.Fatal("concurrent callers must observe the same cached join index")
		}
	}
}

// TestFailedBuildFailsEveryCall: a row shorter than its table's columns makes
// the transposition panic. A later ColumnData or JoinIndex call must panic
// too; under a plain sync.Once it returned the empty data the failed build
// left, and every later batch execution answered with no rows and no error.
func TestFailedBuildFailsEveryCall(t *testing.T) {
	shortRow := func() *Table {
		tbl := columnarFixture()
		tbl.Rows[1] = datum.Row{datum.NewInt(2)}
		return tbl
	}
	panics := func(call func()) (v any) {
		defer func() { v = recover() }()
		call()
		return nil
	}
	for name, build := range map[string]func(*Table) func(){
		"ColumnData": func(tbl *Table) func() { return func() { tbl.ColumnData() } },
		"SeqIdx":     func(tbl *Table) func() { return func() { tbl.SeqIdx() } },
		"JoinIndex":  func(tbl *Table) func() { return func() { tbl.JoinIndex([]int{1}) } },
	} {
		call := build(shortRow())
		first := panics(call)
		if first == nil {
			t.Fatalf("%s: the first call did not panic", name)
		}
		for i := 1; i < 3; i++ {
			if v := panics(call); v != first {
				t.Errorf("%s call %d: panic %v, want the first call's %v", name, i, v, first)
			}
		}
	}
}
