package qtrtest

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/core/qgen"
	"qtrtest/internal/core/suite"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
	"qtrtest/internal/sql"
	"qtrtest/internal/sqlgen"
)

// Benchmarks, one per figure of the paper's evaluation (§6). They run
// scaled-down parameter points so `go test -bench=.` stays tractable; the
// full-size sweeps are produced by `go run ./cmd/qtrtest experiments`. Custom
// metrics report the figures' actual units (trials, optimizer calls, cost)
// alongside ns/op.

func benchDB() *DB { return OpenTPCH(1.0, 42) }

// ---- Figure 8: trials per singleton rule, RANDOM vs PATTERN ----------------

func BenchmarkFig08PatternSingleton(b *testing.B) {
	db := benchDB()
	gen, err := db.NewGenerator(GenConfig{Seed: 1, MaxTrials: 256})
	if err != nil {
		b.Fatal(err)
	}
	ids := db.ExplorationRuleIDs(0)
	trials := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := gen.GeneratePattern(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		trials += q.Trials
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/query")
}

func BenchmarkFig08RandomSingleton(b *testing.B) {
	db := benchDB()
	gen, err := db.NewGenerator(GenConfig{Seed: 2, MaxTrials: 512})
	if err != nil {
		b.Fatal(err)
	}
	// A rule mix exercising easy and hard targets for RANDOM.
	ids := []RuleID{1, 4, 5, 9, 12, 15}
	trials := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := gen.GenerateRandom([]RuleID{ids[i%len(ids)]})
		if err != nil {
			b.Fatal(err)
		}
		trials += q.Trials
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/query")
}

// ---- Figures 9/10: rule pairs, trials and time -------------------------------

func BenchmarkFig09PatternPairs(b *testing.B) {
	db := benchDB()
	gen, err := db.NewGenerator(GenConfig{Seed: 3, MaxTrials: 256})
	if err != nil {
		b.Fatal(err)
	}
	ids := db.ExplorationRuleIDs(8)
	var pairs [][2]RuleID
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			pairs = append(pairs, [2]RuleID{ids[i], ids[j]})
		}
	}
	trials := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		q, err := gen.GeneratePatternPair(p[0], p[1])
		if err != nil {
			b.Fatal(err)
		}
		trials += q.Trials
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/pair")
}

func BenchmarkFig10RandomPairs(b *testing.B) {
	db := benchDB()
	gen, err := db.NewGenerator(GenConfig{Seed: 4, MaxTrials: 512})
	if err != nil {
		b.Fatal(err)
	}
	// Pairs that RANDOM can reach in bounded trials.
	pairs := [][2]RuleID{{1, 4}, {1, 5}, {4, 5}, {5, 6}, {1, 30}}
	trials := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		q, err := gen.GenerateRandom([]RuleID{p[0], p[1]})
		if err != nil {
			b.Fatal(err)
		}
		trials += q.Trials
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/pair")
}

// ---- Figures 11-13: test-suite compression -----------------------------------

// buildSingletonGraph generates a suite graph with no edge priced yet. A
// graph prices an edge once, so a benchmark that times an algorithm's edge
// costing builds a fresh one per iteration, off the clock (freshGraph).
func buildSingletonGraph(b *testing.B, db *DB, n, k int) *Graph {
	b.Helper()
	g, err := db.GenerateSuite(SingletonTargets(db.ExplorationRuleIDs(n)),
		SuiteConfig{K: k, Seed: 7, ExtraOps: 3})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func buildPairGraph(b *testing.B, db *DB, n, k int) *Graph {
	b.Helper()
	g, err := db.GenerateSuite(PairTargets(db.ExplorationRuleIDs(n)),
		SuiteConfig{K: k, Seed: 9, ExtraOps: 3})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// freshGraph is build(), with the benchmark's timer stopped meanwhile.
func freshGraph(b *testing.B, build func() *Graph) *Graph {
	b.StopTimer()
	defer b.StartTimer()
	return build()
}

// benchCompression times BASELINE, SMC and TOPK, each on graphs of its own.
func benchCompression(b *testing.B, build func() *Graph) {
	for _, a := range []struct {
		name string
		run  func(*Graph) (*Solution, error)
	}{
		{"BASELINE", (*Graph).Baseline},
		{"SMC", (*Graph).SetMultiCover},
		{"TOPK", (*Graph).TopKIndependent},
	} {
		b.Run(a.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				sol, err := a.run(freshGraph(b, build))
				if err != nil {
					b.Fatal(err)
				}
				cost = sol.TotalCost
			}
			b.ReportMetric(cost, "suite-cost")
		})
	}
}

func BenchmarkFig11Compression(b *testing.B) {
	db := benchDB()
	benchCompression(b, func() *Graph { return buildSingletonGraph(b, db, 10, 5) })
}

func BenchmarkFig12PairCompression(b *testing.B) {
	db := benchDB()
	benchCompression(b, func() *Graph { return buildPairGraph(b, db, 5, 3) })
}

func BenchmarkFig13VaryK(b *testing.B) {
	db := benchDB()
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				g := freshGraph(b, func() *Graph { return buildPairGraph(b, db, 5, k) })
				sol, err := g.TopKIndependent()
				if err != nil {
					b.Fatal(err)
				}
				cost = sol.TotalCost
			}
			b.ReportMetric(cost, "suite-cost")
		})
	}
}

// ---- Figure 14: monotonicity --------------------------------------------------

// BenchmarkFig14Monotonicity times TOPK (the §5.3.1 pruned scan) against what
// it saves: pricing every edge of the graph, as an exhaustive Figure 6 would.
func BenchmarkFig14Monotonicity(b *testing.B) {
	db := benchDB()
	build := func() *Graph { return buildPairGraph(b, db, 5, 3) }
	b.Run("full", func(b *testing.B) {
		var calls int
		for i := 0; i < b.N; i++ {
			g := freshGraph(b, build)
			for ti, t := range g.Targets {
				for _, qi := range g.Adj[ti] {
					g.EdgeCost(qi, t)
				}
			}
			calls = g.OptimizerCalls()
		}
		b.ReportMetric(float64(calls), "optimizer-calls")
	})
	b.Run("monotonic", func(b *testing.B) {
		var calls int
		for i := 0; i < b.N; i++ {
			sol, err := freshGraph(b, build).TopKIndependent()
			if err != nil {
				b.Fatal(err)
			}
			calls = sol.OptimizerCalls
		}
		b.ReportMetric(float64(calls), "optimizer-calls")
	})
}

// ---- parallel campaign engine ---------------------------------------------------

// BenchmarkParallelGraphBuild measures the end-to-end campaign (suite
// generation + edge costing via TopKIndependent) at different worker-pool
// sizes. The figure series and solutions are identical across sub-benchmarks;
// only wall-clock changes.
func BenchmarkParallelGraphBuild(b *testing.B) {
	db := benchDB()
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				g, err := db.GenerateSuite(PairTargets(db.ExplorationRuleIDs(5)),
					SuiteConfig{K: 3, Seed: 9, ExtraOps: 3, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				sol, err := g.TopKIndependent()
				if err != nil {
					b.Fatal(err)
				}
				cost = sol.TotalCost
			}
			b.ReportMetric(cost, "suite-cost")
		})
	}
}

// ---- substrate micro-benchmarks ------------------------------------------------

const benchQuery = `SELECT c_nationkey, COUNT(*) AS cnt
	FROM customer JOIN orders ON c_custkey = o_custkey
	WHERE o_totalprice > 1000 GROUP BY c_nationkey`

func BenchmarkParseSQL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sql.Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBindSQL(b *testing.B) {
	db := benchDB()
	for i := 0; i < b.N; i++ {
		if _, err := bind.BindSQL(benchQuery, db.Catalog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimize(b *testing.B) {
	db := benchDB()
	bound, err := bind.BindSQL(benchQuery, db.Catalog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Optimizer.Optimize(bound.Tree, bound.MD, opt.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeWithDisabledRules(b *testing.B) {
	db := benchDB()
	bound, err := bind.BindSQL(benchQuery, db.Catalog)
	if err != nil {
		b.Fatal(err)
	}
	disabled := OptimizeOptions{Disabled: NewRuleSet(5, 6, 7, 104)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Optimizer.Optimize(bound.Tree, bound.MD, disabled); err != nil {
			b.Fatal(err)
		}
	}
}

// allocsAndBytesPerRun is testing.AllocsPerRun with the bytes beside the
// objects: mean heap objects and mean heap bytes allocated by one call of f.
// The bytes are the least of three batches' means: a collection during a
// batch empties the sync.Pools the optimizer and executor recycle scratch
// through, and refilling them is the collector's cost, not the call's (it
// failed the 3 KB concat case of TestExecAllocBudget in about one run of
// ten).
func allocsAndBytesPerRun(runs int, f func()) (objects, bytes float64) {
	objects = testing.AllocsPerRun(runs, f)
	bytes = math.Inf(1)
	for batch := 0; batch < 3; batch++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return objects, bytes
}

// TestOptimizeAllocBudget holds one Optimize call of benchQuery — the call
// BenchmarkOptimize and BenchmarkOptimizeWithDisabledRules time — to committed
// allocation ceilings: about 10 % above measured for a released Result, and
// older, looser ones for a kept Result. A caller that keeps the Result's memo
// pays for a whole working set — one scratch where memo, rule context,
// explorer, stats builder and implementor were five objects — namely
// 120 objects / 16.4 KB with every rule on, 64 / 10.8 KB with
// {5,6,7,104} disabled. A caller that releases the Result runs in the scratch
// of the call before and pays for what it is handed — plan, rule set,
// interactions, the plan's join keys in one slab — and for the payload pieces
// of the substitutes the memo adopts: 33 objects / 2.8 KB and 14 / 2.2 KB once
// the scratch has its size. (Before the rules built substitutes and join keys
// in recycled scratch, the four cases took 133 / 15.9 KB, 63 / 10.4 KB,
// 54 / 3.1 KB and 15 / 2.2 KB; before the per-rule bookkeeping moved from maps
// to one bit set, with result maps built at their final size, 130 / 16.8 KB,
// 67 / 12.0 KB, 56 / 4.7 KB and 20 / 4.2 KB.) A per-candidate, per-binding or
// per-substitute allocation creeping back fails go test here instead of
// waiting for a campaign benchmark to show it.
func TestOptimizeAllocBudget(t *testing.T) {
	db := benchDB()
	bound, err := bind.BindSQL(benchQuery, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		opts           OptimizeOptions
		release        bool
		objects, bytes float64
	}{
		{"all rules", OptimizeOptions{}, false, 142, 17500},
		{"5,6,7,104 disabled", OptimizeOptions{Disabled: NewRuleSet(5, 6, 7, 104)}, false, 70, 11500},
		{"all rules, released", OptimizeOptions{}, true, 36, 3100},
		{"5,6,7,104 disabled, released", OptimizeOptions{Disabled: NewRuleSet(5, 6, 7, 104)}, true, 15, 2450},
	} {
		optimize := func() {
			res, err := db.Optimizer.Optimize(bound.Tree, bound.MD, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.release {
				res.Release()
			}
		}
		for i := 0; i < 3; i++ {
			optimize() // a released scratch reaches its steady state
		}
		objects, bytes := allocsAndBytesPerRun(50, optimize)
		t.Logf("%s: %.0f objects, %.0f bytes per Optimize", tc.name, objects, bytes)
		if objects > tc.objects {
			t.Errorf("%s: %.0f objects per Optimize, budget %.0f", tc.name, objects, tc.objects)
		}
		if bytes > tc.bytes {
			t.Errorf("%s: %.0f bytes per Optimize, budget %.0f", tc.name, bytes, tc.bytes)
		}
	}
}

// frontEndQuery is a median-length query of the suite_pairs benchmark
// workload (TPC-H scale 1, seed 42, pair targets of the first 8 exploration
// rules, K=4, ExtraOps=3), as sqlgen renders it: one derived table per
// operator, nested nine deep.
const frontEndQuery = `SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT r_regionkey AS c1, r_name AS c2 FROM region) AS t1 LEFT JOIN (SELECT c_custkey AS c3, c_name AS c4, c_nationkey AS c5, c_acctbal AS c6, c_mktsegment AS c7 FROM customer) AS t2 ON (c1 = c3)) AS t3 WHERE (c1 <= 0)) AS t4 JOIN (SELECT o_orderkey AS c8, o_custkey AS c9, o_orderstatus AS c10, o_totalprice AS c11, o_orderdate AS c12, o_orderpriority AS c13 FROM orders) AS t5 ON (c6 = c8)) AS t6 JOIN (SELECT ps_partkey AS c14, ps_suppkey AS c15, ps_availqty AS c16, ps_supplycost AS c17 FROM partsupp) AS t7 ON (c1 = c17)) AS t8 WHERE (c16 >= 8676)) AS t9 LEFT JOIN (SELECT o_orderkey AS c18, o_custkey AS c19, o_orderstatus AS c20, o_totalprice AS c21, o_orderdate AS c22, o_orderpriority AS c23 FROM orders) AS t10 ON ((c17 = c21) AND (c17 <= c18))) AS t11 WHERE (c4 >= 'Customer#00023')`

// TestFrontEndAllocBudget holds the SQL front end — lexing, parsing and
// binding frontEndQuery, what every generation trial pays before it reaches
// the optimizer — to committed allocation ceilings, about 10 % above
// measured: 317 objects / 15.9 KB. A fresh token buffer, heap select-item
// lists, heap scopes, scope columns and output lists, and a string allocated
// for every one-byte punctuation token took 470 / 45.1 KB; upper-casing every
// word to look it up as a keyword, growing the token slice by doubling, and
// growing the binder's slices at every derived table took 724 / 79.2 KB
// before that.
func TestFrontEndAllocBudget(t *testing.T) {
	cat := benchDB().Catalog
	objects, bytes := allocsAndBytesPerRun(50, func() {
		if _, err := bind.BindSQL(frontEndQuery, cat); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f objects, %.0f bytes per lex + parse + bind", objects, bytes)
	if objects > 350 {
		t.Errorf("%.0f objects per lex + parse + bind, budget 350", objects)
	}
	if bytes > 17500 {
		t.Errorf("%.0f bytes per lex + parse + bind, budget 17500", bytes)
	}
}

// TestSuitePairsOptimizerCallBudget holds the compression half of the
// suite_pairs benchmark workload (TPC-H scale 1, seed 42, the 28 pairs of the
// first 8 exploration rules, K=4, ExtraOps=3: generate, SMC, TOPK) to a
// ceiling of edge optimizations: 120 measured — 112 for SMC's assignments, 8
// more for TOPK, which stops a target's scan at the first query whose node
// cost exceeds its k-th best edge — where pricing every edge of the graph
// takes 2 133. The generation half (213 optimizations, ceiling 220) is
// TestSuitePairsGenerationBudget in internal/core/qgen, beside the hook that
// counts them. Raise a ceiling only with the reason in the PR.
func TestSuitePairsOptimizerCallBudget(t *testing.T) {
	db := OpenTPCH(1, 42)
	g, err := db.GenerateSuite(PairTargets(db.ExplorationRuleIDs(8)), SuiteConfig{K: 4, Seed: 42, ExtraOps: 3})
	if err != nil {
		t.Fatal(err)
	}
	smc, err := g.SetMultiCover()
	if err != nil {
		t.Fatal(err)
	}
	topk, err := g.TopKIndependent()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d queries; edge optimizations: SMC %d + TOPK %d", len(g.Queries), smc.OptimizerCalls, topk.OptimizerCalls)
	if calls := g.OptimizerCalls(); calls > 125 {
		t.Errorf("%d edge optimizations (SMC %d, TOPK %d), budget 125", calls, smc.OptimizerCalls, topk.OptimizerCalls)
	}
}

// TestExecAllocBudget holds plan execution on the batch engine to committed
// object ceilings, about 10 % above measured. (i) A selective nested-loops
// join — k + k' < 10 over two tables of k = 0..n-1, 55 result rows whatever n
// — costs the same objects at 200 x 200 and at 400 x 400 candidate pairs (14
// at both; 29 while an evaluated column grew from empty in every probe chunk,
// 40 023 and 160 024 when the join allocated a row per pair): a per-pair
// allocation creeping back fails go test here, not a campaign benchmark.
// (ii) A 3 x 3 nested-loops join under a project, the shape a verify sweep
// executes by the hundred thousand, costs less than when the join was a row
// operator between two adapters (17 objects; 29 then): a fast inner loop must
// not be paid for in set-up per plan. (iii) A later run of a compiled Program
// costs the result it returns and nothing of the plan's set-up: strictly
// fewer objects than the first run of the same plan (2 where that costs 14
// and 17, the ceiling 3). (iv) Bytes per execution, about 15 % above measured
// (72 517 for either join, 2 528 for the micro-plan; 266 316 and 2 880 while
// evaluated columns grew by doubling, 695 410 and 4 528 when a Datum was 48
// bytes): a value growing a word moves bytes, not objects, and no object count
// sees it. (v) Sort, limit, concat and merge join run columnar, with no row
// built below the root: LIMIT 10 over a two-key sort over a 400 + 400-row
// concat costs 22 objects / 2.6 KB (842 / 113 KB when they ran row-at-a-time
// between adapters), and a 400 x 400 merge join of 22 858 rows 29 objects /
// 2.0 MB (36 / 3.6 MB while the result's header array grew by appending,
// 22 984 / 12.4 MB with a row per output row), of which its result is 10 on a
// later run. (vi) Operators copy only the columns read above them: a
// one-column projection over a sort over a 16-column join of 1 600 rows, on
// scratch pools a collection has emptied, costs 94 objects / 333 KB (124 /
// 2.19 MB when the join gathered and the sort drained every column). (vii) A
// result is materialized once: a filter passing 3 000 of 4 000 rows in three
// batches costs its three exact-size slabs and one header array of 3 000
// rows, 56 bytes a row, plus 8 KB for the plan and allocation size classes
// (172 853 bytes measured; 251 964 with a header slice per batch appended to
// a growing result).
func TestExecAllocBudget(t *testing.T) {
	cat := catalog.New()
	for _, n := range []int{3, 200, 400} {
		for _, side := range []string{"l", "r"} {
			tbl := &catalog.Table{Name: fmt.Sprintf("%s%d", side, n), Columns: []catalog.Column{
				{Name: "k", Type: datum.TypeInt}, {Name: "v", Type: datum.TypeInt},
			}}
			for i := 0; i < n; i++ {
				tbl.Rows = append(tbl.Rows, datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(i % 7))})
			}
			tbl.ComputeStats()
			cat.Add(tbl)
		}
	}
	nl := func(n int) *physical.Expr {
		return &physical.Expr{
			Op: physical.OpNLJoin, JoinType: physical.JoinInner,
			Children: []*physical.Expr{
				{Op: physical.OpScan, Table: fmt.Sprintf("l%d", n), Cols: []scalar.ColumnID{1, 2}},
				{Op: physical.OpScan, Table: fmt.Sprintf("r%d", n), Cols: []scalar.ColumnID{3, 4}},
			},
			On: &scalar.Cmp{Op: scalar.CmpLT,
				L: &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 3}},
				R: &scalar.Const{D: datum.NewInt(10)}},
		}
	}
	micro := &physical.Expr{
		Op: physical.OpProject, Children: []*physical.Expr{nl(3)},
		Projs: []logical.ProjItem{{Out: 5, E: &scalar.ColRef{ID: 2}}, {Out: 6, E: &scalar.ColRef{ID: 4}}},
	}
	scan := func(side string, n int, k, v scalar.ColumnID) *physical.Expr {
		return &physical.Expr{Op: physical.OpScan, Table: fmt.Sprintf("%s%d", side, n), Cols: []scalar.ColumnID{k, v}}
	}
	topOfUnion := &physical.Expr{Op: physical.OpLimit, N: 10, Children: []*physical.Expr{{
		Op: physical.OpSort, Keys: []logical.SortKey{{Col: 11}, {Col: 10, Desc: true}},
		Children: []*physical.Expr{{
			Op: physical.OpConcat, Children: []*physical.Expr{scan("l", 400, 1, 2), scan("r", 400, 3, 4)},
			OutCols: []scalar.ColumnID{10, 11}, InputCols: [][]scalar.ColumnID{{1, 2}, {3, 4}},
		}},
	}}}
	merge := &physical.Expr{
		Op: physical.OpMergeJoin, JoinType: physical.JoinInner,
		Children: []*physical.Expr{scan("l", 400, 1, 2), scan("r", 400, 3, 4)},
		On:       &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 2}, R: &scalar.ColRef{ID: 4}},
		EquiLeft: []scalar.ColumnID{2}, EquiRight: []scalar.ColumnID{4},
	}
	// Two eight-column tables of 400 rows, key i % 100: their join is 1 600
	// rows of sixteen columns, of which a narrow projection over a sort reads
	// two.
	wideCols := func(side string, first scalar.ColumnID) []scalar.ColumnID {
		tbl := &catalog.Table{Name: "wide" + side}
		cols := make([]scalar.ColumnID, 8)
		for c := range cols {
			tbl.Columns = append(tbl.Columns, catalog.Column{Name: fmt.Sprintf("c%d", c), Type: datum.TypeInt})
			cols[c] = first + scalar.ColumnID(c)
		}
		for i := 0; i < 400; i++ {
			row := make(datum.Row, 8)
			for c := range row {
				row[c] = datum.NewInt(int64(i % (100 + c)))
			}
			tbl.Rows = append(tbl.Rows, row)
		}
		tbl.ComputeStats()
		cat.Add(tbl)
		return cols
	}
	wl, wr := wideCols("l", 20), wideCols("r", 30)
	long := &catalog.Table{Name: "long", Columns: []catalog.Column{{Name: "k", Type: datum.TypeInt}, {Name: "v", Type: datum.TypeInt}}}
	for i := 0; i < 4000; i++ {
		long.Rows = append(long.Rows, datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(i % 7))})
	}
	long.ComputeStats()
	cat.Add(long)
	gathered := &physical.Expr{
		Op: physical.OpFilter, Children: []*physical.Expr{{Op: physical.OpScan, Table: "long", Cols: []scalar.ColumnID{60, 61}}},
		Filter: &scalar.Cmp{Op: scalar.CmpLT, L: &scalar.ColRef{ID: 60}, R: &scalar.Const{D: datum.NewInt(3000)}},
	}
	narrow := &physical.Expr{
		Op: physical.OpProject, Projs: []logical.ProjItem{{Out: 50, E: &scalar.ColRef{ID: wr[5]}}},
		Children: []*physical.Expr{{
			Op: physical.OpSort, Keys: []logical.SortKey{{Col: wl[3], Desc: true}},
			Children: []*physical.Expr{{
				Op: physical.OpHashJoin, JoinType: physical.JoinInner,
				Children: []*physical.Expr{
					{Op: physical.OpScan, Table: "widel", Cols: wl},
					{Op: physical.OpScan, Table: "wider", Cols: wr},
				},
				On:       &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: wl[0]}, R: &scalar.ColRef{ID: wr[0]}},
				EquiLeft: []scalar.ColumnID{wl[0]}, EquiRight: []scalar.ColumnID{wr[0]},
			}},
		}},
	}
	for _, tc := range []struct {
		name    string
		plan    *physical.Expr
		rows    int
		objects float64
		rerun   float64
		bytes   float64
		// cold starts every execution on empty scratch pools, as after two
		// collections: the columns a plan copies are then bytes it allocates.
		cold bool
	}{
		{"200 x 200 pairs", nl(200), 55, 16, 3, 84000, false},
		{"400 x 400 pairs", nl(400), 55, 16, 3, 84000, false},
		{"3 x 3 under project", micro, 9, 19, 3, 2950, false},
		{"LIMIT 10 over sort over 400 + 400 concat", topOfUnion, 10, 26, 3, 3450, false},
		{"400 x 400 merge join", merge, 22858, 32, 11, 2330000, false},
		{"narrow project over sort over wide join, cold pools", narrow, 1600, 110, 83, 630000, true},
		{"filter over 4 000-row scan, 3 000 rows in 3 batches", gathered, 3000, 13, 5, 3000*(24+2*16) + 8000, false},
	} {
		run := func() {
			if tc.cold {
				runtime.GC()
				runtime.GC()
			}
			rows, err := exec.RunEngine(exec.EngineBatch, tc.plan, cat, 0, 0)
			if err != nil || len(rows) != tc.rows {
				t.Fatalf("%s: %d rows, %v; want %d", tc.name, len(rows), err, tc.rows)
			}
		}
		objects, bytes := allocsAndBytesPerRun(50, run)
		t.Logf("%s: %.0f objects, %.0f bytes per execution", tc.name, objects, bytes)
		if objects > tc.objects {
			t.Errorf("%s: %.0f objects per execution, budget %.0f", tc.name, objects, tc.objects)
		}
		if bytes > tc.bytes {
			t.Errorf("%s: %.0f bytes per execution, budget %.0f", tc.name, bytes, tc.bytes)
		}
		prog := exec.Compile(exec.EngineBatch, tc.plan)
		rerun := testing.AllocsPerRun(50, func() { // AllocsPerRun's warm-up call is the first run
			if tc.cold {
				runtime.GC()
				runtime.GC()
			}
			rows, err := prog.Run(cat, 0, 0)
			if err != nil || len(rows) != tc.rows {
				t.Fatalf("%s: later run: %d rows, %v; want %d", tc.name, len(rows), err, tc.rows)
			}
		})
		t.Logf("%s: %.0f objects per later run of its Program", tc.name, rerun)
		if rerun >= objects || rerun > tc.rerun {
			t.Errorf("%s: %.0f objects per later run of its Program, budget %.0f and below the first run's %.0f",
				tc.name, rerun, tc.rerun, objects)
		}
	}
}

// TestVerifyAllocBudget holds one whole VerifyRules sweep — every rule, a
// fresh result cache, one worker: what the benchmark's verify_sweep repeats —
// to committed ceilings of objects and bytes per executed pair, about 8 %
// above measured. A sweep executes each plan on 4 to 108 databases, so
// per-execution set-up and the cache's bookkeeping are what the figures are
// made of: 70 objects per pair when every execution compiled its plan afresh,
// 14.8 once a plan compiled once for its whole sweep and a table tuple's
// databases were enumerated once per process, 8.7 once the comparison sorted
// two pooled permutations where it built a key string per row and a map (8.2
// after later executor work), 7.5 (1 026 bytes) once a result took its first
// batch's rows without copying them, 7.1 (793 bytes) once a cached execution
// was an 80-byte entry in one table keyed by two dense ids, where it was a
// 144-byte entry in a map per plan, 6.7 (790 bytes) once a result was
// materialized once, and 5.0 (676 bytes) now that a cache miss takes a slot
// of a chunk and hangs on its plan's chain, with no object of its own and no
// table to grow.
func TestVerifyAllocBudget(t *testing.T) {
	const objectBudget, byteBudget = 5.4, 730
	executed := 0
	objects, bytes := allocsAndBytesPerRun(1, func() { // the warm-up sweep fills the per-process database lists
		rep, err := VerifyRules(VerifyConfig{Workers: 1, Cache: NewResultCache(0)})
		if err != nil || len(rep.Findings) != 0 {
			t.Fatalf("sweep: %v, %d findings", err, len(rep.Findings))
		}
		executed = rep.Executed
	})
	objects, bytes = objects/float64(executed), bytes/float64(executed)
	t.Logf("%d executed pairs per sweep: %.2f objects and %.0f bytes per pair", executed, objects, bytes)
	if objects > objectBudget {
		t.Errorf("%.2f objects per executed pair, budget %.1f", objects, objectBudget)
	}
	if bytes > byteBudget {
		t.Errorf("%.0f bytes per executed pair, budget %d", bytes, byteBudget)
	}
}

func BenchmarkExecuteJoinAgg(b *testing.B) {
	db := benchDB()
	bound, err := bind.BindSQL(benchQuery, db.Catalog)
	if err != nil {
		b.Fatal(err)
	}
	res, err := db.Optimizer.Optimize(bound.Tree, bound.MD, opt.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(res.Plan, db.Catalog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLGeneration(b *testing.B) {
	db := benchDB()
	gen, err := qgen.New(db.Optimizer, qgen.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q, err := gen.GeneratePattern(14)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlgen.Generate(q.Tree, q.MD); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteGeneration(b *testing.B) {
	db := benchDB()
	for i := 0; i < b.N; i++ {
		_, err := suite.Generate(db.Optimizer,
			suite.SingletonTargets([]RuleID{1, 5, 9}),
			suite.GenConfig{K: 2, Seed: int64(i), ExtraOps: 2})
		if err != nil {
			b.Fatal(err)
		}
	}
}
