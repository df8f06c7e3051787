package rescache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"unsafe"

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

// rowBytes is what approxSize charges one row of testCatalog's two columns.
const rowBytes = int64(unsafe.Sizeof(datum.Row{}) + 2*unsafe.Sizeof(datum.Datum{}))

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
	// The 64-key stream returns about 36,000 rows (val < 1..7 of 1,000, nine
	// times over), the largest result 1,000. A cap of 24,000 rows holds a few
	// results but the stream overflows it, forcing LRU evictions.
	const cap = 24000 * rowBytes
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
	// A cold result is the 86 of 300 rows with val < 2. The budget holds
	// about a hundred of them, and 200 stream through; `hot` is touched after
	// each, so the LRU must keep it while the cold ones are evicted.
	const coldRows = 86
	c := New(100 * coldRows * rowBytes)
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
	if after.Evictions == 0 {
		t.Fatalf("stats = %+v, want cold entries evicted under the budget", after)
	}
}

// TestOversizedEntryIsDroppedNotAdmitted: one entry may take at most
// maxBytes/16. A result exactly that size is admitted; under a budget
// 16 bytes smaller the same result — though far below the whole budget —
// is dropped at admit (counted as an eviction) and recomputed on re-request.
func TestOversizedEntryIsDroppedNotAdmitted(t *testing.T) {
	cat := testCatalog(50)
	rows, err := exec.RunEngine(exec.EngineBatch, scanPlan(), cat, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	size := approxSize(rows)

	fits := New(maxEntryShare * size)
	for i := 0; i < 2; i++ {
		if _, err := fits.Run(exec.EngineBatch, scanPlan(), cat, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := fits.Stats(); st.Misses != 1 || st.Hits != 1 || st.Evictions != 0 || st.Bytes != size {
		t.Fatalf("stats = %+v, want a result of exactly maxBytes/16 admitted and hit", st)
	}

	c := New(maxEntryShare * (size - 1))
	for i := 0; i < 2; i++ {
		rows, err := c.Run(exec.EngineBatch, scanPlan(), cat, 0, 0)
		if err != nil || len(rows) != 50 {
			t.Fatalf("run %d: %d rows, err %v", i, len(rows), err)
		}
	}
	st := c.Stats()
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (oversized entry never admitted)", st.Misses)
	}
	if st.Evictions != 2 || st.Entries != 0 || st.Bytes != 0 || len(c.plans) != 0 {
		t.Fatalf("stats = %+v, %d plans; want both oversized results dropped", st, len(c.plans))
	}
}

// TestEqualPlansShareRuns: two distinct *physical.Expr with one Hash() are
// one plan to the cache — the cross-rule sharing verify relies on, where
// every rule instantiates its own trees. The same plan on a second catalog,
// or on the first after a mutation, is a new run of that plan.
func TestEqualPlansShareRuns(t *testing.T) {
	cat, other := testCatalog(30), testCatalog(30)
	p1, p2 := filterPlan(3), filterPlan(3)
	if p1 == p2 || p1.Hash() != p2.Hash() {
		t.Fatal("want two distinct plans with equal fingerprints")
	}
	c := New(0)
	run := func(p *physical.Expr, cat *catalog.Catalog, want Stats) {
		t.Helper()
		if _, err := c.Run(exec.EngineBatch, p, cat, 0, 0); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Hits != want.Hits || st.Misses != want.Misses {
			t.Fatalf("stats = %+v, want %d hits and %d misses", st, want.Hits, want.Misses)
		}
	}
	run(p1, cat, Stats{Misses: 1})
	run(p2, cat, Stats{Misses: 1, Hits: 1})
	run(p2, other, Stats{Misses: 2, Hits: 1})
	cat.Add(&catalog.Table{Name: "u", Columns: []catalog.Column{{Name: "x", Type: datum.TypeInt}}})
	run(p1, cat, Stats{Misses: 3, Hits: 1})
	if len(c.plans) != 1 || len(c.plans[p1.Hash()].runs) != 3 {
		t.Fatalf("%d plans, want one plan with three runs", len(c.plans))
	}
}

// TestRunlessPlanLeavesTable: evicting a plan's last run drops the plan
// from the table, so the string-keyed map holds only plans with results.
func TestRunlessPlanLeavesTable(t *testing.T) {
	cat := testCatalog(100)
	// val < 7 for every row, so each threshold from 7 up is a distinct plan
	// with the same 100-row result.
	plan := func(i int) *physical.Expr { return filterPlan(int64(7 + i)) }
	rows, err := exec.RunEngine(exec.EngineBatch, plan(0), cat, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(maxEntryShare * approxSize(rows))
	for i := 0; i < maxEntryShare; i++ {
		if _, err := c.Run(exec.EngineBatch, plan(i), cat, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evictions != 0 || len(c.plans) != maxEntryShare {
		t.Fatalf("stats = %+v, %d plans; want %d plans and no eviction", st, len(c.plans), maxEntryShare)
	}
	if _, err := c.Run(exec.EngineBatch, plan(maxEntryShare), cat, 0, 0); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != maxEntryShare {
		t.Fatalf("stats = %+v, want one eviction", st)
	}
	if _, ok := c.plans[plan(0).Hash()]; ok || len(c.plans) != maxEntryShare {
		t.Fatalf("%d plans; want the least recently used plan gone with its one run", len(c.plans))
	}
}

func TestKeyForIncorporatesCatalogVersion(t *testing.T) {
	cat := testCatalog(10)
	k1 := keyFor(exec.EngineBatch, scanPlan(), cat, 0, 0)
	extra := &catalog.Table{Name: "u", Columns: []catalog.Column{{Name: "x", Type: datum.TypeInt}}}
	cat.Add(extra)
	k2 := keyFor(exec.EngineBatch, scanPlan(), cat, 0, 0)
	if k1 == k2 {
		t.Fatalf("key unchanged across catalog mutation: %+v", k1)
	}
	if k1.CatID != k2.CatID {
		t.Fatalf("catalog identity changed without a new catalog: %d vs %d", k1.CatID, k2.CatID)
	}
}

// A result holding a string is charged its datum, not the string's bytes:
// those live once, in the intern table, however many results hold them.
func TestApproxSizeLeavesStringBytesToInternTable(t *testing.T) {
	small := []datum.Row{{datum.NewInt(1)}}
	big := []datum.Row{{datum.NewString(fmt.Sprintf("%01000d", 7))}}
	if approxSize(big) != approxSize(small) {
		t.Fatalf("approxSize charges string bytes: big %d, small %d",
			approxSize(big), approxSize(small))
	}
}
