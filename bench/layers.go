package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"qtrtest"
	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/core/qgen"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/par"
	"qtrtest/internal/physical"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rules"
	"qtrtest/internal/sql"
	"qtrtest/internal/sqlgen"
)

// Pass 2 of the traced run: every function here calls one layer's exported
// entry point from outside, inside a span, over inputs pass 1 produced.
// Nothing in internal/ is instrumented; spans and counters inside the
// program are a later change and must absorb this file.

// replayQuery is one query a campaign produced, with the rule sets the
// campaign re-optimizes it under.
type replayQuery struct {
	sql      string
	tree     *logical.Expr
	md       *logical.Metadata
	disabled []rules.Set
}

// replayFrontend replays the SQL round trip every generated query takes:
// render the tree, parse the text, bind the statement.
func replayFrontend(tr *tracer, cat *catalog.Catalog, queries []replayQuery) error {
	for _, q := range queries {
		end := tr.begin("sqlgen.render")
		_, err := sqlgen.Generate(q.tree, q.md)
		end()
		if err != nil {
			return fmt.Errorf("rendering %q: %w", q.sql, err)
		}
		end = tr.begin("sql.parse")
		stmt, err := sql.Parse(q.sql)
		end()
		if err != nil {
			return fmt.Errorf("parsing %q: %w", q.sql, err)
		}
		end = tr.begin("bind.bind")
		_, err = bind.Bind(stmt, cat)
		end()
		if err != nil {
			return fmt.Errorf("binding %q: %w", q.sql, err)
		}
	}
	return nil
}

// replayOptimize optimizes every query with all rules on and once per
// disabled set, and returns the plans found (base first), the number of
// Optimize calls made and the mean memo size. A disabled set that leaves the
// query unplannable is skipped, as the campaigns skip it.
func replayOptimize(tr *tracer, o *opt.Optimizer, queries []replayQuery) (plans []*physical.Expr, calls int, memoExprs float64, err error) {
	exprs := 0
	for _, q := range queries {
		end := tr.begin("opt.base")
		res, err := o.Optimize(q.tree, q.md, opt.Options{})
		end()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("optimizing %q: %w", q.sql, err)
		}
		calls++
		exprs += res.Memo.NumExprs()
		plans = append(plans, res.Plan)
		for _, d := range q.disabled {
			end := tr.begin("opt.disabled")
			res, err := o.Optimize(q.tree, q.md, opt.Options{Disabled: d})
			end()
			calls++
			if err != nil {
				continue
			}
			exprs += res.Memo.NumExprs()
			plans = append(plans, res.Plan)
		}
	}
	return plans, calls, float64(exprs) / float64(len(plans)), nil
}

// distinctPlans drops plans with a fingerprint already seen, keeping first
// appearances in order: what a fresh result cache would execute.
func distinctPlans(plans []*physical.Expr) []*physical.Expr {
	seen := make(map[string]bool, len(plans))
	out := plans[:0:0]
	for _, p := range plans {
		if h := p.Hash(); !seen[h] {
			seen[h] = true
			out = append(out, p)
		}
	}
	return out
}

// execReplay parameterizes replayExec.
type execReplay struct {
	cat     *catalog.Catalog
	plans   []*physical.Expr // distinct
	trees   []*logical.Expr  // logical trees for the reference interpreter; may be nil
	maxRows int
	maxWork int64
	// stride samples every stride-th plan for the per-engine comparison and
	// the cache probes; the batch engine still runs every plan once so
	// exec.busy_s covers the whole campaign.
	stride int
}

// replayExec runs every distinct plan on the batch engine (the exec.busy
// spans, exec.rows_out, exec.alloc_mb, exec.compare_us), then a sample on
// each engine and through a cold and a warm cache key. It returns counts by
// metric name; exec.replayed is how many plans the totals cover.
func replayExec(tr *tracer, r execReplay) (map[string]float64, error) {
	counts := map[string]float64{}
	run := func(span string, eng exec.Engine, plan *physical.Expr) (float64, error) {
		end := tr.begin(span)
		_, err := exec.RunEngine(eng, plan, r.cat, r.maxRows, r.maxWork)
		d := end()
		if err != nil && !errors.Is(err, exec.ErrRowLimit) {
			return 0, fmt.Errorf("%s: %w\n%s", span, err, plan)
		}
		return d, nil
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, plan := range r.plans {
		end := tr.begin("exec.busy")
		rows, err := exec.RunEngine(exec.EngineBatch, plan, r.cat, r.maxRows, r.maxWork)
		end()
		if errors.Is(err, exec.ErrRowLimit) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("exec.busy: %w\n%s", err, plan)
		}
		counts["exec.rows_out"] += float64(len(rows))
		order := exec.RootOrder(plan)
		end = tr.begin("exec.compare")
		verdict, detail := exec.CompareResults(rows, order, rows, order)
		end()
		if verdict == exec.VerdictMismatch {
			return nil, fmt.Errorf("a result does not compare equal to itself: %s\n%s", detail, plan)
		}
	}
	runtime.ReadMemStats(&m1)
	counts["exec.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	counts["exec.replayed"] = float64(len(r.plans))

	var overhead []float64
	for i := 0; i < len(r.plans); i += r.stride {
		plan := r.plans[i]
		before, err := run("exec.batch.plan", exec.EngineBatch, plan)
		if err != nil {
			return nil, err
		}
		rc := rescache.New(cacheBytes)
		end := tr.begin("rescache.miss")
		_, _ = rc.Run(exec.EngineBatch, plan, r.cat, r.maxRows, r.maxWork) // outcome checked by the direct runs around it
		cold := end()
		end = tr.begin("rescache.hit")
		_, _ = rc.Run(exec.EngineBatch, plan, r.cat, r.maxRows, r.maxWork)
		end()
		after, err := run("exec.batch.plan", exec.EngineBatch, plan)
		if err != nil {
			return nil, err
		}
		// A direct run on either side of the cold one cancels the drift of
		// a plan getting faster as its inputs warm up.
		overhead = append(overhead, (cold-(before+after)/2)*1e6)
		if _, err := run("exec.row.plan", exec.EngineRow, plan); err != nil {
			return nil, err
		}
	}
	// The median of per-plan differences: a mean would be the noise of the
	// few plans that run for tens of milliseconds.
	counts["rescache.miss_overhead_us"] = median(overhead)

	for _, tree := range r.trees {
		end := tr.begin("exec.ref.plan")
		_, err := exec.RunTree(exec.EngineRef, tree, r.cat, r.maxRows, r.maxWork)
		end()
		if err != nil && !errors.Is(err, exec.ErrRowLimit) {
			return nil, fmt.Errorf("exec.ref.plan: %w", err)
		}
	}
	return counts, nil
}

// replaySuite replays a graph's queries (each re-optimized with the target it
// was generated for disabled) and the distinct plans its solutions execute:
// every assigned query's base plan and edge plan. withRef additionally runs
// the query trees on the reference interpreter.
func replaySuite(tr *tracer, db *qtrtest.DB, g *qtrtest.Graph, sols []*qtrtest.Solution, withRef bool, stride int) (map[string]float64, error) {
	queries := make([]replayQuery, len(g.Queries))
	var trees []*logical.Expr
	for i, q := range g.Queries {
		queries[i] = replayQuery{
			sql: q.SQL, tree: q.Tree, md: q.MD,
			disabled: []rules.Set{g.Targets[q.GeneratedFor].Set()},
		}
		if withRef {
			trees = append(trees, q.Tree)
		}
	}
	var plans []*physical.Expr
	for _, sol := range sols {
		for _, a := range sol.Assignments {
			// Both are cached: the base plan from generation, the edge plan
			// from the algorithm that chose the edge. No optimizer call.
			plans = append(plans, g.Queries[a.Query].BasePlan, g.EdgePlan(a.Query, g.Targets[a.Target]))
		}
	}
	if err := replayFrontend(tr, db.Catalog, queries); err != nil {
		return nil, err
	}
	_, _, memoExprs, err := replayOptimize(tr, db.Optimizer, queries)
	if err != nil {
		return nil, err
	}
	counts, err := replayExec(tr, execReplay{cat: db.Catalog, plans: distinctPlans(plans), trees: trees, stride: stride})
	if err != nil {
		return nil, err
	}
	counts["opt.memo_exprs"] = memoExprs
	return counts, nil
}

func (c *suitePairs) replay(tr *tracer) (map[string]float64, error) {
	g := c.last
	edgeCalls := g.OptimizerCalls()
	counts, err := replaySuite(tr, c.db, g, c.lastSols, true, 1)
	if err != nil {
		return nil, err
	}

	// Query generation, driven the way suite.Generate drives it: one forked
	// generator per target, K distinct queries each.
	gen, err := qgen.New(c.db.Optimizer, qgen.Config{Seed: c.cfg.Seed, MaxTrials: 512, ExtraOps: c.cfg.ExtraOps})
	if err != nil {
		return nil, err
	}
	for ti, t := range c.targets {
		// A Query reports the trial that found it, not how many ran: the
		// generator always sweeps every composition of the two patterns once
		// and keeps the smallest hit (§3.2). From outside, the trials that ran
		// are therefore at least the larger of the two.
		pa, err := gen.Pattern(t.Rules[0])
		if err != nil {
			return nil, err
		}
		pb, err := gen.Pattern(t.Rules[1])
		if err != nil {
			return nil, err
		}
		sweep := len(qgen.ComposePatterns(pa, pb))
		wgen := gen.Fork(par.DeriveSeed(c.cfg.Seed, ti))
		seen := make(map[string]bool)
		for len(seen) < c.cfg.K {
			end := tr.begin("qgen.generate")
			q, err := wgen.GeneratePatternPair(t.Rules[0], t.Rules[1])
			end()
			if err != nil {
				return nil, fmt.Errorf("generating for target %s: %w", t, err)
			}
			trials := q.Trials
			if trials < sweep {
				trials = sweep
			}
			counts["qgen.trials"] += float64(trials)
			seen[q.SQL] = true
		}
		counts["qgen.queries"] += float64(len(seen))
	}
	// Each trial optimizes once; each edge the algorithms priced, once more.
	counts["opt.calls"] = counts["qgen.trials"] + float64(edgeCalls)
	counts["opt.base_calls"] = counts["qgen.trials"]

	end := tr.begin("suite.baseline")
	base, err := g.Baseline()
	end()
	if err != nil {
		return nil, err
	}
	counts["suite.cost_baseline"] = base.TotalCost
	return counts, nil
}

// replay prices the optimizer on this workload's queries too, but opt.calls
// stays 0: the timed region never calls it.
func (c *validateExec) replay(tr *tracer) (map[string]float64, error) {
	return replaySuite(tr, c.db, c.g, c.sols, false, 4)
}

// fuzzReplaySample bounds how many of the campaign's queries pass 2
// regenerates: three steering rounds' worth.
const fuzzReplaySample = 96

// replay regenerates the campaign's first queries the way fuzz.runOne does
// (same derived seeds; unsteered weights, so the first round is identical
// and later ones are the same distribution before coverage steering) and
// replays the differential half of the oracle: every rule of RuleSet(q)
// disabled in turn. Metamorphic rewrites are not replayed.
func (c *fuzzStar) replay(tr *tracer) (map[string]float64, error) {
	cfg := c.config(1)
	const maxOps, maxRows, maxCost, maxWork = 7, 20000, 5e6, 2e6 // fuzz.Config defaults
	cat, o := c.db.Catalog, c.db.Optimizer
	gen, err := qgen.New(o, qgen.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	counts := map[string]float64{}
	weights := qgen.DefaultWeights()
	var queries []replayQuery
	for idx := 0; idx < cfg.N && idx < fuzzReplaySample; idx++ {
		seed := par.DeriveSeed(cfg.Seed, idx)
		rng := rand.New(rand.NewSource(par.DeriveSeed(seed, 1)))
		md := logical.NewMetadata(cat)
		counts["qgen.trials"]++
		end := tr.begin("qgen.generate")
		tree, err := gen.Fork(seed).RandomTreeWeighted(md, 2+rng.Intn(maxOps-1), weights)
		end()
		if err != nil {
			continue
		}
		text, err := sqlgen.Generate(tree, md)
		if err != nil {
			continue
		}
		bound, err := bind.BindSQL(text, cat)
		if err != nil {
			continue
		}
		res, err := o.Optimize(bound.Tree, bound.MD, opt.Options{})
		if err != nil || res.Plan.Cost > maxCost {
			continue
		}
		q := replayQuery{sql: text, tree: bound.Tree, md: bound.MD}
		for _, id := range res.RuleSet.Sorted() {
			q.disabled = append(q.disabled, rules.NewSet(id))
		}
		queries = append(queries, q)
	}
	if len(queries) == 0 {
		return nil, errors.New("fuzz replay regenerated no executable query")
	}
	counts["qgen.queries"] = float64(len(queries))
	if err := replayFrontend(tr, cat, queries); err != nil {
		return nil, err
	}
	plans, calls, memoExprs, err := replayOptimize(tr, o, queries)
	if err != nil {
		return nil, err
	}
	affordable := plans[:0]
	for _, p := range plans {
		if p.Cost <= maxCost {
			affordable = append(affordable, p)
		}
	}
	ex, err := replayExec(tr, execReplay{cat: cat, plans: distinctPlans(affordable), maxRows: maxRows, maxWork: maxWork, stride: 1})
	if err != nil {
		return nil, err
	}
	for k, v := range ex {
		counts[k] = v
	}
	counts["opt.memo_exprs"] = memoExprs
	// Scaled from the sample to the campaign: Optimize calls per query.
	counts["opt.calls"] = float64(calls) / float64(len(queries)) * float64(cfg.N)
	counts["opt.base_calls"] = float64(cfg.N)
	return counts, nil
}

// microQueries are tiny plans over a TPC-H instance with one to three rows
// per table: what each costs is the executor's per-plan fixed cost (iterator
// build, pool traffic, result copy), the quantity verify_sweep is made of.
// The verifier's own plans are not reachable from outside its package.
var microQueries = []string{
	"SELECT s_suppkey, s_name FROM supplier",
	"SELECT o_orderkey FROM orders WHERE o_totalprice > 0",
	"SELECT o_orderkey, o_totalprice + 1 FROM orders",
	"SELECT c_custkey, o_orderkey FROM customer JOIN orders ON c_custkey = o_custkey",
	"SELECT c_custkey, o_orderkey FROM customer LEFT JOIN orders ON c_custkey = o_custkey",
	"SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey",
	"SELECT o_orderkey FROM orders ORDER BY o_orderkey",
	"SELECT s_suppkey FROM supplier UNION ALL SELECT c_custkey FROM customer",
}

const microIterations = 200

func (c *verifySweep) replay(tr *tracer) (map[string]float64, error) {
	db := qtrtest.OpenTPCH(0.01, 42)
	var plans []*physical.Expr
	for _, q := range microQueries {
		res, err := db.Optimize(q)
		if err != nil {
			return nil, fmt.Errorf("planning micro query %q: %w", q, err)
		}
		rows, err := exec.RunEngine(exec.EngineBatch, res.Plan, db.Catalog, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("running micro query %q: %w", q, err)
		}
		if len(rows) > 3 {
			return nil, fmt.Errorf("micro query %q returned %d rows, want at most 3", q, len(rows))
		}
		plans = append(plans, res.Plan)
	}
	counts := map[string]float64{}
	for i := 0; i < microIterations; i++ {
		ex, err := replayExec(tr, execReplay{cat: db.Catalog, plans: plans, stride: 1})
		if err != nil {
			return nil, err
		}
		for _, k := range []string{"exec.rows_out", "exec.alloc_mb", "exec.replayed"} {
			counts[k] += ex[k]
		}
		counts["rescache.miss_overhead_us"] += ex["rescache.miss_overhead_us"] / microIterations
	}
	counts["exec.batch.open_us"] = perCall(spanStats(tr.spans), "exec.batch.plan", 1e6)
	return counts, nil
}
