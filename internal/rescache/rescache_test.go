package rescache

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// testCatalog builds a one-table catalog of n (id, val) rows.
func testCatalog(n int) *catalog.Catalog {
	t := &catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Type: datum.TypeInt},
			{Name: "val", Type: datum.TypeInt},
		},
		PrimaryKey: []string{"id"},
	}
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(i % 7))})
	}
	t.ComputeStats()
	cat := catalog.New()
	cat.Add(t)
	return cat
}

func scanPlan() *physical.Expr {
	return &physical.Expr{Op: physical.OpScan, Table: "t", Cols: []scalar.ColumnID{1, 2}}
}

func filterPlan(threshold int64) *physical.Expr {
	return &physical.Expr{
		Op: physical.OpFilter, Children: []*physical.Expr{scanPlan()},
		Filter: &scalar.Cmp{Op: scalar.CmpLT, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: datum.NewInt(threshold)}},
	}
}

func requireEqualRows(t *testing.T, want, got []datum.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row count %d vs %d", len(want), len(got))
	}
	for i := range want {
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("row %d col %d: %v vs %v", i, j, want[i][j], got[i][j])
			}
		}
	}
}

// TestRunProgram: a prepared plan runs under the key Run gives its engine and
// plan, a nil cache runs it directly, and a hit compiles nothing — a Program
// that only ever hits costs each lookup its closure and no operator, where
// compiling this two-operator plan alone would cost several times that.
func TestRunProgram(t *testing.T) {
	cat, plan := testCatalog(100), filterPlan(3)
	want, err := exec.RunEngine(exec.EngineBatch, plan, cat, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(0)
	var none *Cache
	p := exec.Compile(exec.EngineBatch, plan)
	for _, run := range []func() ([]datum.Row, error){
		func() ([]datum.Row, error) { return c.RunProgram(p, cat, 0, 0) },               // miss
		func() ([]datum.Row, error) { return c.Run(exec.EngineBatch, plan, cat, 0, 0) }, // hit on the same key
		func() ([]datum.Row, error) { return c.RunProgram(p, cat, 0, 0) },               // hit
		func() ([]datum.Row, error) { return none.RunProgram(p, cat, 0, 0) },
	} {
		got, err := run()
		if err != nil {
			t.Fatal(err)
		}
		requireEqualRows(t, want, got)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss and 2 hits", st)
	}
	unrun := exec.Compile(exec.EngineBatch, plan)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.RunProgram(unrun, cat, 0, 0); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("a hit on a program that never ran allocates %.0f objects, want at most its closure", n)
	}
}

func TestRunMatchesDirectExecution(t *testing.T) {
	cat := testCatalog(100)
	c := New(0)
	for _, plan := range []*physical.Expr{scanPlan(), filterPlan(3)} {
		want, werr := exec.RunEngine(exec.EngineBatch, plan, cat, 0, 0)
		got, gerr := c.Run(exec.EngineBatch, plan, cat, 0, 0)
		if werr != nil || gerr != nil {
			t.Fatalf("unexpected errors: %v / %v", werr, gerr)
		}
		requireEqualRows(t, want, got)
		// Second request: a hit must return the same result.
		again, err := c.Run(exec.EngineBatch, plan, cat, 0, 0)
		if err != nil {
			t.Fatalf("hit: %v", err)
		}
		requireEqualRows(t, want, again)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 misses and 2 hits", st)
	}
}

func TestNilCacheFallsThrough(t *testing.T) {
	cat := testCatalog(10)
	var c *Cache
	rows, err := c.Run(exec.EngineBatch, scanPlan(), cat, 0, 0)
	if err != nil || len(rows) != 10 {
		t.Fatalf("nil cache run: %d rows, err %v", len(rows), err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", st)
	}
}

func TestErrorOutcomesAreCached(t *testing.T) {
	cat := testCatalog(100)
	c := New(0)
	// maxRows below the result size trips ErrRowLimit (a Capped verdict at
	// the oracle layer); the trip is deterministic, so it caches.
	for i := 0; i < 2; i++ {
		_, err := c.Run(exec.EngineBatch, scanPlan(), cat, 5, 0)
		if !errors.Is(err, exec.ErrRowLimit) {
			t.Fatalf("attempt %d: err = %v, want ErrRowLimit", i, err)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss then 1 hit", st)
	}
}

func TestKeyDistinguishesCapsEnginesAndCatalogs(t *testing.T) {
	catA := testCatalog(20)
	catB := testCatalog(20)
	c := New(0)
	runs := []struct {
		cat     *catalog.Catalog
		eng     exec.Engine
		maxRows int
		maxWork int64
	}{
		{catA, exec.EngineBatch, 0, 0},
		{catA, exec.EngineRow, 0, 0},    // engine differs
		{catA, exec.EngineBatch, 50, 0}, // row cap differs
		{catA, exec.EngineBatch, 0, 99}, // work budget differs
		{catB, exec.EngineBatch, 0, 0},  // catalog identity differs
	}
	for i, r := range runs {
		if _, err := c.Run(r.eng, scanPlan(), r.cat, r.maxRows, r.maxWork); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if st := c.Stats(); st.Misses != int64(len(runs)) || st.Hits != 0 {
		t.Fatalf("stats = %+v, want %d distinct misses", st, len(runs))
	}
}

func TestSingleFlight(t *testing.T) {
	cat := testCatalog(2000)
	c := New(0)
	plan := filterPlan(4)
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([][]datum.Row, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows, err := c.Run(exec.EngineBatch, plan, cat, 0, 0)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			results[g] = rows
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (single-flight)", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, goroutines-1)
	}
	for g := 1; g < goroutines; g++ {
		requireEqualRows(t, results[0], results[g])
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	// Race-detector workout: many goroutines over overlapping keys with a
	// cap small enough to force evictions while other goroutines read.
	cat := testCatalog(500)
	c := New(64 << 10)
	plans := make([]*physical.Expr, 8)
	for i := range plans {
		plans[i] = filterPlan(int64(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				plan := plans[(g+i)%len(plans)]
				if _, err := c.Run(exec.EngineBatch, plan, cat, 0, 0); err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits+st.Misses != 8*40 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*40)
	}
}

func TestEvictionBoundsMemory(t *testing.T) {
	cat := testCatalog(1000)
	// Cap sized so each shard holds a few results but the 64-key stream
	// overflows it, forcing LRU evictions.
	const cap = 2 << 20
	c := New(cap)
	for i := 0; i < 64; i++ {
		plan := filterPlan(int64(i%7) + 1)
		// Vary maxRows to force distinct keys beyond the 7 distinct plans.
		if _, err := c.Run(exec.EngineBatch, plan, cat, 2000+i, 0); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions under a %d-byte cap", st, cap)
	}
	if st.Bytes > cap {
		t.Fatalf("retained %d bytes, cap %d", st.Bytes, cap)
	}
	// Entries in the map must match what Stats reports and stay bounded.
	if st.Entries == 0 || st.Entries >= 64 {
		t.Fatalf("entries = %d, want 0 < entries < 64", st.Entries)
	}
}

func TestLRUKeepsHotEntries(t *testing.T) {
	cat := testCatalog(300)
	hot := filterPlan(1)
	// Budget sized so one shard holds a few entries; keep touching `hot`
	// while streaming cold keys through, then verify hot stayed cached.
	c := New(numShards * 64 << 10)
	if _, err := c.Run(exec.EngineBatch, hot, cat, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		cold := filterPlan(2)
		if _, err := c.Run(exec.EngineBatch, cold, cat, 1000+i, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(exec.EngineBatch, hot, cat, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	if _, err := c.Run(exec.EngineBatch, hot, cat, 0, 0); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("hot plan was evicted: hits %d -> %d (stats %+v)", before.Hits, after.Hits, after)
	}
}

func TestOversizedEntryIsDroppedNotAdmitted(t *testing.T) {
	cat := testCatalog(5000)
	// Cap far below one 5000-row result: the entry must be dropped at
	// admit time (counted as an eviction) and recomputed on re-request.
	c := New(numShards * 1024)
	for i := 0; i < 2; i++ {
		rows, err := c.Run(exec.EngineBatch, scanPlan(), cat, 0, 0)
		if err != nil || len(rows) != 5000 {
			t.Fatalf("run %d: %d rows, err %v", i, len(rows), err)
		}
	}
	st := c.Stats()
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (oversized entry never admitted)", st.Misses)
	}
	if st.Evictions != 2 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, want both oversized results dropped", st)
	}
}

func TestKeyForIncorporatesCatalogVersion(t *testing.T) {
	cat := testCatalog(10)
	k1 := KeyFor(exec.EngineBatch, scanPlan(), cat, 0, 0)
	extra := &catalog.Table{Name: "u", Columns: []catalog.Column{{Name: "x", Type: datum.TypeInt}}}
	cat.Add(extra)
	k2 := KeyFor(exec.EngineBatch, scanPlan(), cat, 0, 0)
	if k1 == k2 {
		t.Fatalf("key unchanged across catalog mutation: %+v", k1)
	}
	if k1.CatID != k2.CatID {
		t.Fatalf("catalog identity changed without a new catalog: %d vs %d", k1.CatID, k2.CatID)
	}
}

func TestApproxSizeCountsStrings(t *testing.T) {
	small := []datum.Row{{datum.NewInt(1)}}
	big := []datum.Row{{datum.NewString(fmt.Sprintf("%01000d", 7))}}
	if approxSize(big) <= approxSize(small) {
		t.Fatalf("approxSize ignores string payloads: big %d <= small %d",
			approxSize(big), approxSize(small))
	}
}
