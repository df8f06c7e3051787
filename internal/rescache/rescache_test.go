package rescache

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
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
// that only ever hits allocates nothing per lookup, where compiling this
// two-operator plan alone would cost several objects.
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
	}); n > 0 {
		t.Errorf("a hit on a program that never ran allocates %.0f objects, want none", n)
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
	if st.Evictions != 2 || st.Entries != 0 || st.Bytes != 0 || c.free == nil || len(c.plans.of) != 0 || len(c.ctxs.of) != 0 {
		t.Fatalf("stats = %+v, %d plan ids, %d context ids, recycled slot %p; want both oversized results dropped with their ids and slots",
			st, len(c.plans.of), len(c.ctxs.of), c.free)
	}
}

// TestEqualPlansShareRuns: two distinct *physical.Expr with one Hash() are
// one plan id to the cache — the cross-rule sharing verify relies on, where
// every rule instantiates its own trees. The same plan on a second catalog,
// or on the first after a mutation, is a new run context of that plan.
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
	if len(c.plans.of) != 1 || len(c.ctxs.of) != 3 || c.entries != 3 || chainLen(c, 0) != 3 {
		t.Fatalf("%d plan ids, %d context ids, %d entries, %d on the plan's chain; want one plan run in three contexts",
			len(c.plans.of), len(c.ctxs.of), c.entries, chainLen(c, 0))
	}
}

// TestConstantKindsKeySeparateEntries: plans that differ in a constant's
// kind alone (val < 3 with 3 an INT, a FLOAT or a DATE) are different plans,
// so each is a plan id and an entry of its own.
func TestConstantKindsKeySeparateEntries(t *testing.T) {
	cat := testCatalog(30)
	c := New(0)
	for i, d := range []datum.Datum{datum.NewInt(3), datum.NewFloat(3), datum.NewDate(3)} {
		p := &physical.Expr{
			Op: physical.OpFilter, Children: []*physical.Expr{scanPlan()},
			Filter: &scalar.Cmp{Op: scalar.CmpLT, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: d}},
		}
		want, werr := exec.RunEngine(exec.EngineBatch, p, cat, 0, 0)
		got, gerr := c.Run(exec.EngineBatch, p, cat, 0, 0)
		if werr != nil || gerr != nil {
			t.Fatalf("%s: unexpected errors: %v / %v", p.Hash(), werr, gerr)
		}
		requireEqualRows(t, want, got)
		if st := c.Stats(); st.Misses != int64(i+1) || st.Hits != 0 {
			t.Fatalf("%s: stats = %+v, want %d misses and no hit", p.Hash(), st, i+1)
		}
	}
	if len(c.plans.of) != 3 {
		t.Fatalf("%d plan ids, want 3", len(c.plans.of))
	}
}

// TestRunlessPlanLeavesTable: evicting the last entry of a plan, or of a run
// context, frees that id — its key leaves the id map, and the next new plan
// or context is given the id — so the id maps hold only keys with results
// and number at most one id more than the cache's entries.
func TestRunlessPlanLeavesTable(t *testing.T) {
	cat := testCatalog(100)
	// val < 7 for every row, so each threshold from 7 up is a distinct plan
	// with the same 100-row result, and so is each row cap from 100 up.
	plan := func(i int) *physical.Expr { return filterPlan(int64(7 + i)) }
	rows, err := exec.RunEngine(exec.EngineBatch, plan(0), cat, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	catID, catVer := cat.Identity()
	for _, tc := range []struct {
		name string
		run  func(c *Cache, i int) error
		// varied reports the id map of the key half the stream varies: the
		// keys it maps, the ids it has numbered, and whether the stream's
		// first key is still mapped; fixed is the other half's key count.
		varied func(c *Cache) (keys, numbered int, first bool)
		fixed  func(c *Cache) int
	}{
		{"plans",
			func(c *Cache, i int) error {
				_, err := c.Run(exec.EngineBatch, plan(i), cat, 0, 0)
				return err
			},
			func(c *Cache) (int, int, bool) {
				_, ok := c.plans.of[plan(0).Hash()]
				return len(c.plans.of), len(c.plans.slot), ok
			},
			func(c *Cache) int { return len(c.ctxs.of) }},
		{"run contexts",
			func(c *Cache, i int) error {
				_, err := c.Run(exec.EngineBatch, plan(0), cat, 100+i, 0)
				return err
			},
			func(c *Cache) (int, int, bool) {
				_, ok := c.ctxs.of[runCtx{Engine: exec.EngineBatch, CatID: catID, CatVer: catVer, MaxRows: 100}]
				return len(c.ctxs.of), len(c.ctxs.slot), ok
			},
			func(c *Cache) int { return len(c.plans.of) }},
	} {
		c := New(maxEntryShare * approxSize(rows))
		for i := 0; i < 2*maxEntryShare; i++ {
			if err := tc.run(c, i); err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			keys, numbered, first := tc.varied(c)
			if st.Entries != min(i+1, maxEntryShare) || st.Evictions != int64(max(0, i+1-maxEntryShare)) {
				t.Fatalf("%s, run %d: stats = %+v, want the LRU entry evicted from run %d on", tc.name, i, st, maxEntryShare)
			}
			if keys != st.Entries || numbered != min(i+1, maxEntryShare+1) || first != (i < maxEntryShare) || tc.fixed(c) != 1 {
				t.Fatalf("%s, run %d: %d keys (first mapped: %v) over %d ids, %d in the other half; want one key per entry and evicted ids reused",
					tc.name, i, keys, first, numbered, tc.fixed(c))
			}
		}
	}
}

// TestCatalogMutationMisses: a plan run on a catalog, and again after the
// catalog gained a table, is two entries with two run contexts — one catalog
// identity at two versions — and a rerun at the new version hits.
func TestCatalogMutationMisses(t *testing.T) {
	cat := testCatalog(10)
	c := New(0)
	run := func() {
		t.Helper()
		if _, err := c.Run(exec.EngineBatch, scanPlan(), cat, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	run()
	cat.Add(&catalog.Table{Name: "u", Columns: []catalog.Column{{Name: "x", Type: datum.TypeInt}}})
	run()
	run()
	if st := c.Stats(); st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want a miss per catalog version and one hit", st)
	}
	before, after := c.ctxs.slot[0].key, c.ctxs.slot[1].key
	if len(c.ctxs.of) != 2 || before.CatID != after.CatID || before.CatVer == after.CatVer {
		t.Fatalf("run contexts %+v and %+v, want one catalog identity at two versions", before, after)
	}
}

// TestEntryCost pins what the byte cap charges an entry beyond its rows: its
// slot in a chunk, of at most 80 bytes, and nothing else — no table slot.
func TestEntryCost(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size > 80 {
		t.Fatalf("entry is %d bytes, want at most 80", size)
	}
	if got, want := approxSize(nil), int64(unsafe.Sizeof(entry{})); got != want {
		t.Fatalf("an empty result is charged %d bytes, want the entry's %d", got, want)
	}
	one := []datum.Row{{datum.NewInt(1), datum.NewInt(2)}}
	if got := approxSize(one) - approxSize(nil); got != rowBytes {
		t.Fatalf("a two-column row is charged %d bytes, want %d", got, rowBytes)
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

// chainLen counts the entries on plan id pid's chain.
func chainLen(c *Cache, pid uint32) int {
	n := 0
	for e := c.plans.slot[pid].first; e != nil; e = e.sib {
		n++
	}
	return n
}

// checkIDs fails unless every live plan and context id is used by a cached
// entry: each id map's live counts sum to the cache's entries, every plan
// id's chain holds exactly its live entries, all of that plan, and neither
// map holds more keys than there are entries.
func checkIDs(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	planUses, ctxUses := 0, 0
	for pid, s := range c.plans.slot {
		planUses += int(s.live)
		if n := chainLen(c, uint32(pid)); n != int(s.live) {
			t.Fatalf("plan id %d: %d live entries, %d on its chain", pid, s.live, n)
		}
		for e := s.first; e != nil; e = e.sib {
			if e.plan != uint32(pid) || e.size < 0 {
				t.Fatalf("plan id %d chains an entry of plan id %d, size %d", pid, e.plan, e.size)
			}
		}
	}
	for _, s := range c.ctxs.slot {
		ctxUses += int(s.live)
	}
	n := c.entries
	if planUses != n || ctxUses != n || len(c.plans.of) > n || len(c.ctxs.of) > n ||
		len(c.plans.slot)-len(c.plans.free) != len(c.plans.of) || len(c.ctxs.slot)-len(c.ctxs.free) != len(c.ctxs.of) {
		t.Fatalf("%d entries; plan ids: %d keys, %d uses, %d numbered, %d free; context ids: %d keys, %d uses, %d numbered, %d free",
			n, len(c.plans.of), planUses, len(c.plans.slot), len(c.plans.free),
			len(c.ctxs.of), ctxUses, len(c.ctxs.slot), len(c.ctxs.free))
	}
}

// TestIdsStayBoundedByEntries: a stream of 10 000 distinct plans over 300
// distinct catalogs — every run a miss — under a cap of 64 results leaves no
// more live plan or context ids than live entries at any point, numbers at
// most one id more than the cache ever held entries, and carves at most
// twice that many entry slots: evicted slots are reused.
func TestIdsStayBoundedByEntries(t *testing.T) {
	cats := make([]*catalog.Catalog, 300)
	for i := range cats {
		cats[i] = testCatalog(3)
	}
	full, err := exec.RunEngine(exec.EngineBatch, scanPlan(), cats[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const held = 64
	c := New(held * approxSize(full))
	peak := 0
	for i := 0; i < 10000; i++ {
		if _, err := c.Run(exec.EngineBatch, filterPlan(int64(i)), cats[i%len(cats)], 0, 0); err != nil {
			t.Fatal(err)
		}
		checkIDs(t, c)
		peak = max(peak, c.Stats().Entries)
	}
	st := c.Stats()
	if st.Misses != 10000 || st.Entries < held || len(c.plans.slot) > peak+1 || len(c.ctxs.slot) > peak+1 || c.carved > 2*peak {
		t.Fatalf("stats = %+v; %d plan and %d context ids numbered, %d slots carved; want 10000 misses, at most %d entries' ids and one more, and twice their slots",
			st, len(c.plans.slot), len(c.ctxs.slot), c.carved, peak)
	}
}

// TestEvictionReleasesResult: once its entry is evicted, a result is
// unreachable from the cache, which stays alive to the end. Entries are
// carved out of shared chunks that outlive them, so eviction must clear an
// entry's result: otherwise the rows would stay reachable through the chunk,
// and the byte cap would bound nothing.
func TestEvictionReleasesResult(t *testing.T) {
	cat := testCatalog(100)
	full, err := exec.RunEngine(exec.EngineBatch, scanPlan(), cat, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(maxEntryShare * approxSize(full))
	// The 44 rows with val < 3 are gathered into a slice of the result's
	// own, which closes freed when the collector finds it unreachable.
	freed := make(chan struct{})
	func() {
		rows, err := c.Run(exec.EngineBatch, filterPlan(3), cat, 0, 0)
		if err != nil || len(rows) != 44 {
			t.Fatalf("%d rows, %v; want 44", len(rows), err)
		}
		runtime.SetFinalizer(&rows[0], func(*datum.Row) { close(freed) })
	}()
	runtime.GC()
	runtime.GC()
	select {
	case <-freed:
		t.Fatal("a cached result was collected while its entry is in the table")
	default:
	}
	for i := 0; c.Stats().Evictions == 0; i++ {
		if _, err := c.Run(exec.EngineBatch, filterPlan(int64(100+i)), cat, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.plans.of[filterPlan(3).Hash()]; ok {
		t.Fatal("the first eviction did not take the least recently used entry")
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("an evicted entry's result is still reachable")
	}
	runtime.KeepAlive(c)
}

// TestChurnRecyclesIDsUnderReaders: goroutines sharing 48 keys under a cap
// of about eight results, so entries are evicted and their ids recycled
// while other goroutines look up, wait on and read entries. Run it under
// -race; every result must equal direct execution.
func TestChurnRecyclesIDsUnderReaders(t *testing.T) {
	cats := []*catalog.Catalog{testCatalog(50), testCatalog(50), testCatalog(50), testCatalog(50)}
	plans := make([]*physical.Expr, 12)
	want := make([][][]datum.Row, len(plans))
	for i := range plans {
		plans[i] = filterPlan(int64(i))
		for _, cat := range cats {
			rows, err := exec.RunEngine(exec.EngineBatch, plans[i], cat, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], rows)
		}
	}
	full, err := exec.RunEngine(exec.EngineBatch, scanPlan(), cats[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(8 * approxSize(full))
	const goroutines, runs = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				k := (g*7 + i*5) % (len(plans) * len(cats))
				p, db := k%len(plans), k/len(plans)
				rows, err := c.Run(exec.EngineBatch, plans[p], cats[db], 0, 0)
				if err != nil {
					t.Errorf("run: %v", err)
					return
				}
				if len(rows) != len(want[p][db]) {
					t.Errorf("plan %d on catalog %d: %d rows, want %d", p, db, len(rows), len(want[p][db]))
					return
				}
				for r := range rows {
					if rows[r][0] != want[p][db][r][0] || rows[r][1] != want[p][db][r][1] {
						t.Errorf("plan %d on catalog %d: row %d is %v, want %v", p, db, r, rows[r], want[p][db][r])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != goroutines*runs || st.Evictions == 0 || st.Bytes > 8*approxSize(full) {
		t.Fatalf("stats = %+v, want %d lookups and evictions under the cap", st, goroutines*runs)
	}
	checkIDs(t, c)
}

// TestWaitersOfDroppedEntriesShareTheRun: requests waiting on an in-flight
// entry get the result its run computed even when the entry leaves the cache
// before they read it — dropped at admit, or admitted and evicted at once —
// without running the plan again, and the last of them recycles the entry's
// slot, result cleared. Then the same with real concurrency: goroutines on
// one key under a cap below one result, so every admit drops the entry its
// waiters wait on. Run it under -race; every caller must get what a direct
// Program.Run gives, and there must be exactly one run per miss.
func TestWaitersOfDroppedEntriesShareTheRun(t *testing.T) {
	cat := testCatalog(2000)
	p := exec.Compile(exec.EngineBatch, filterPlan(4))
	want, err := p.Run(cat, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	catID, catVer := cat.Identity()
	rc := runCtx{Engine: exec.EngineBatch, CatID: catID, CatVer: catVer}
	const waiters = 4
	for _, tc := range []struct {
		name  string
		leave func(c *Cache, e *entry)
	}{
		{"dropped at admit", func(c *Cache, e *entry) { c.admit(e, want, nil, c.maxBytes) }},
		{"admitted, then evicted", func(c *Cache, e *entry) {
			c.admit(e, want, nil, approxSize(want))
			c.evict(e)
		}},
	} {
		c := New(0)
		c.mu.Lock()
		e, hit := c.claim(p.Plan().Hash(), rc) // as a first request leaves it: in flight
		c.mu.Unlock()
		if hit {
			t.Fatalf("%s: a fresh cache hit", tc.name)
		}
		got := make([][]datum.Row, waiters)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rows, err := c.RunProgram(p, cat, 0, 0)
				if err != nil {
					t.Errorf("%s: %v", tc.name, err)
				}
				got[g] = rows
			}(g)
		}
		for n := int32(0); n < waiters; {
			time.Sleep(time.Millisecond)
			c.mu.Lock()
			n = e.waiters
			c.mu.Unlock()
		}
		c.mu.Lock()
		tc.leave(c, e)
		c.mu.Unlock()
		wg.Wait()
		for _, rows := range got {
			if len(rows) == 0 || &rows[0] != &want[0] {
				t.Fatalf("%s: a waiter did not get the result its entry's run computed", tc.name)
			}
		}
		if st := c.Stats(); st.Misses != 1 || st.Hits != waiters || st.Evictions != 1 || st.Entries != 0 || st.Bytes != 0 || c.free != e || e.rows != nil {
			t.Fatalf("%s: stats = %+v, recycled slot %p; want one entry, dropped, its %d waiters hits and its slot %p recycled, result cleared",
				tc.name, st, c.free, waiters, e)
		}
		checkIDs(t, c)
	}

	c := New(maxEntryShare * (approxSize(want) - 1))
	const rounds, goroutines = 20, 8
	runs := make(map[*datum.Row]bool) // one result slice per run
	for r := 0; r < rounds; r++ {
		got := make([][]datum.Row, goroutines)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rows, err := c.RunProgram(p, cat, 0, 0)
				if err != nil {
					t.Error(err)
				}
				got[g] = rows
			}(g)
		}
		wg.Wait()
		for _, rows := range got {
			requireEqualRows(t, want, rows)
			runs[&rows[0]] = true
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses != rounds*goroutines || st.Evictions != st.Misses || st.Entries != 0 || int64(len(runs)) != st.Misses {
		t.Fatalf("stats = %+v, %d runs; want %d requests, every entry dropped and one run per miss", st, len(runs), rounds*goroutines)
	}
	t.Logf("%d of %d requests waited on an entry that was then dropped", st.Hits, rounds*goroutines)
	checkIDs(t, c)
}

// TestPanickingRunLeavesNoEntry: a run that panics (here the reference
// engine's, on a row shorter than its table) leaves no entry behind. A
// request waiting on it runs the plan itself rather than wait forever, and a
// later request computes afresh rather than read a result that never came.
func TestPanickingRunLeavesNoEntry(t *testing.T) {
	cat := testCatalog(10)
	tab, err := cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	tab.Rows[3] = datum.Row{datum.NewInt(3)}
	p := exec.Compile(exec.EngineRef, filterPlan(3))
	catID, catVer := cat.Identity()
	c := New(0)
	recovered := func(run func()) (v any) {
		defer func() { v = recover() }()
		run()
		return nil
	}
	request := func() { c.RunProgram(p, cat, 0, 0) }

	c.mu.Lock()
	e, _ := c.claim(p.Plan().Hash(), runCtx{Engine: exec.EngineRef, CatID: catID, CatVer: catVer})
	c.mu.Unlock()
	waiter := make(chan any)
	go func() { waiter <- recovered(request) }()
	for n := int32(0); n < 1; {
		time.Sleep(time.Millisecond)
		c.mu.Lock()
		n = e.waiters
		c.mu.Unlock()
	}
	if recovered(func() { c.compute(e, p, cat, 0, 0) }) == nil {
		t.Fatal("the first request's run did not panic")
	}
	select {
	case v := <-waiter:
		if v == nil {
			t.Fatal("the waiter read a result the panicking run never produced")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter is still waiting for a run that panicked")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 || st.Evictions != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want the panicking run's entry dropped", st)
	}
	if recovered(request) == nil {
		t.Fatal("a later request did not run the plan again")
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want a second miss and no entry", st)
	}
	checkIDs(t, c)
}

// TestCachedMissAllocBudget holds a miss to what it must add to a direct
// Program.Run, over 4 096 distinct keys — 64 plans on 64 run contexts, about
// verify's ratio of runs to plans: no object of its own, only its 80-byte
// slot in a chunk, with the chunks and the id maps' growth amortized over the
// keys. Measured: 0.015 objects and 93 bytes. The flat table it replaced, an
// 80-byte entry allocated per miss in a map keyed by two dense ids, added
// 1.02 objects and 160 bytes, half of them the table's growth; the plan-major
// table before that, a 144-byte entry and a map per plan, 1.19 objects and
// 350 bytes. Under -race, whose sync.Pool drops items at random, direct runs
// allocate what the pools would have kept, and the budget is the flat
// table's: 1.05 objects and 176 bytes.
func TestCachedMissAllocBudget(t *testing.T) {
	cat := testCatalog(3)
	progs := make([]*exec.Program, 64)
	for i := range progs {
		progs[i] = exec.Compile(exec.EngineBatch, filterPlan(int64(i)))
		progs[i].Plan().Hash()
		if _, err := progs[i].Run(cat, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	const contexts = 64
	keys := float64(len(progs) * contexts)
	sweep := func(run func(p *exec.Program, maxRows int) error) func() {
		return func() {
			for _, p := range progs {
				for j := 0; j < contexts; j++ {
					if err := run(p, 1000+j); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	measure := func(f func()) (objects, bytes float64) {
		objects = testing.AllocsPerRun(3, f)
		bytes = math.Inf(1)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return objects, bytes
	}
	directObjects, directBytes := measure(sweep(func(p *exec.Program, maxRows int) error {
		_, err := p.Run(cat, maxRows, 0)
		return err
	}))
	cachedObjects, cachedBytes := measure(func() {
		c := New(0)
		sweep(func(p *exec.Program, maxRows int) error {
			_, err := c.RunProgram(p, cat, maxRows, 0)
			return err
		})()
		if st := c.Stats(); st.Misses != int64(keys) {
			t.Fatalf("stats = %+v, want %.0f misses", st, keys)
		}
	})
	objects, bytes := (cachedObjects-directObjects)/keys, (cachedBytes-directBytes)/keys
	t.Logf("a miss adds %.3f objects and %.1f bytes to a direct run", objects, bytes)
	objectBudget, byteBudget := 0.017, 100.0
	if raceDetector {
		objectBudget, byteBudget = 1.05, 176
	}
	if objects > objectBudget || bytes > byteBudget {
		t.Errorf("a miss adds %.3f objects and %.1f bytes to a direct run, budget %.3f and %.0f", objects, bytes, objectBudget, byteBudget)
	}
}
