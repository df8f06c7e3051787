package main

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"qtrtest"
	"qtrtest/internal/rescache"
)

// Query-generation seeds are part of each workload's definition, not a
// function of -seed. Per-query cost is heavy-tailed: over sixteen generation
// seeds one validate_exec repetition ranged from 3.4 s to 140 s (a few
// nested-loop plans) and two seeds hit a latent executor panic, while a fuzz
// repetition ranged from 5.2 s to 8.1 s. A query set that changes with the
// seed would make every bound meaningless. -seed drives the database
// instead (row values, statistics, and through them constants and plan
// choices), the way TPC-H fixes its queries and varies the data: over ten
// database seeds the same repetitions stay within about 4 % of each other.
const (
	pairsCampaignSeed    = 42
	validateCampaignSeed = 9
	fuzzCampaignSeed     = 42
)

// cacheBytes is the CLI's default result-cache budget (-cachemb 256).
const cacheBytes = 256 << 20

// outcome is what one repetition (one whole campaign) reports.
type outcome struct {
	// checks counts oracle checks attempted, identical-plan skips excluded;
	// the other counters partition what became of them or sit beside them.
	checks       int
	skips        int // identical-plan skips
	undetermined int // the oracle declined to judge (LIMIT without total order)
	capped       int // a row or work cap cut the execution short (the fuzz report does not count these)
	wrong        int // mismatches, findings, failing pairs: must be 0 on the pristine registry
	cache        rescache.Stats
	// report renders everything deterministic the campaign reported; it is
	// equal across repetitions and worker counts or the gate fails.
	report string
	// invariant is the first violated structural invariant, if any.
	invariant error
	// layer carries the exact counts the campaign's reports expose, by
	// per-layer metric name.
	layer map[string]float64
}

// verdicts is how many attempted checks the oracle decided.
func (o *outcome) verdicts() int { return o.checks - o.undetermined - o.capped - o.wrong }

func (o *outcome) fingerprint() string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(o.report)))[:16]
}

// campaign is one opened workload. run executes one whole campaign against
// a fresh result cache, the way one CLI invocation would; replay drives each
// layer's exported functions over the inputs the last run produced (pass 2
// of the traced run) and returns the counts spans cannot carry; gate runs
// the workload's own untimed known-answer checks and returns what failed
// plus any per-layer counts they produce.
type campaign interface {
	run(workers int, tr *tracer) (*outcome, error)
	replay(tr *tracer) (map[string]float64, error)
	gate() (failures []string, counts map[string]float64)
}

type workload struct {
	name string
	why  string
	// open loads the database and builds everything repetitions share.
	// Spans it records belong to set-up, not to a repetition.
	open func(seed int64, quick bool, tr *tracer) (campaign, error)
}

var workloads = []workload{
	{
		name: "suite_pairs",
		why:  "TPC-H scale 1, 28 rule-pair targets (first 8 exploration rules), K=4, ExtraOps=3: generate, SMC, TOPK, run both. The paper's headline campaign; ~99 % optimizer time.",
		open: openSuitePairs,
	},
	{
		name: "validate_exec",
		why:  "TPC-H scale 15, singleton suite (30 rules, K=5) built in set-up; a repetition runs BASELINE, SMC and TOPK on a fresh cache. Zero optimizer calls: executor, cache hits, compare.",
		open: openValidateExec,
	},
	{
		name: "fuzz_star",
		why:  "Star schema scale 1, Fuzz(N=500) with CLI defaults. The mixed workload: SQL front end, per-rule re-optimization, capped execution, ~97 % cache misses.",
		open: openFuzzStar,
	},
	{
		name: "verify_sweep",
		why:  "20 x VerifyRules over all 47 rules, fresh cache per sweep. Micro-plans on <=3-row databases: per-plan fixed cost, cache keying, compare and allocation dominate.",
		open: openVerifySweep,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// suiteRun executes the solutions in order against one fresh cache and folds
// the reports into an outcome.
func suiteRun(db *qtrtest.DB, g *qtrtest.Graph, sols []*qtrtest.Solution, tr *tracer) (*outcome, error) {
	rc := qtrtest.NewResultCache(cacheBytes)
	g.SetCache(rc)
	out := &outcome{layer: map[string]float64{}}
	var sb strings.Builder
	for _, sol := range sols {
		end := tr.begin("suite.run")
		rep, err := g.Run(sol, db.Optimizer, db.Catalog)
		end()
		if err != nil {
			return nil, fmt.Errorf("running %s: %w", sol.Name, err)
		}
		out.checks += len(sol.Assignments) - rep.SkippedIdentical
		out.skips += rep.SkippedIdentical
		out.undetermined += len(rep.Undetermined)
		out.wrong += len(rep.Mismatches)
		if err := g.Validate(sol); err != nil && out.invariant == nil {
			out.invariant = fmt.Errorf("%s: %w", sol.Name, err)
		}
		out.layer["suite.assignments"] += float64(len(sol.Assignments))
		out.layer["suite.cost_"+strings.ToLower(sol.Name)] = sol.TotalCost
		fmt.Fprintf(&sb, "%s cost=%.6f calls=%d exec=%d skipped=%d undetermined=%d\n",
			sol.Name, sol.TotalCost, sol.OptimizerCalls, rep.PlanExecutions, rep.SkippedIdentical, len(rep.Undetermined))
		for _, a := range sol.Assignments {
			fmt.Fprintf(&sb, " %d:%d:%.6f", a.Target, a.Query, a.EdgeCost)
		}
		for _, m := range rep.Mismatches {
			fmt.Fprintf(&sb, "\nBUG %s %s %s", m.Target, m.Detail, m.Query.SQL)
		}
		sb.WriteByte('\n')
	}
	for _, q := range g.Queries {
		sb.WriteString(q.SQL)
		sb.WriteByte('\n')
	}
	out.cache = rc.Stats()
	out.report = sb.String()
	out.layer["suite.edge_calls"] = float64(g.OptimizerCalls())
	return out, nil
}

// suitePairs is the paper's headline campaign: pair generation (§3) and
// compression (§4-5), then validation of both compressed suites.
type suitePairs struct {
	db      *qtrtest.DB
	targets []qtrtest.Target
	cfg     qtrtest.SuiteConfig
	// last is the graph the latest run built; replay and gate read it.
	last     *qtrtest.Graph
	lastSols []*qtrtest.Solution
}

func openSuitePairs(seed int64, quick bool, tr *tracer) (campaign, error) {
	defer tr.begin("setup.catalog")()
	rules, k := 8, 4
	if quick {
		rules, k = 3, 2
	}
	db := qtrtest.OpenTPCH(1, seed)
	return &suitePairs{
		db:      db,
		targets: qtrtest.PairTargets(db.ExplorationRuleIDs(rules)),
		cfg:     qtrtest.SuiteConfig{K: k, Seed: pairsCampaignSeed, ExtraOps: 3},
	}, nil
}

func (c *suitePairs) run(workers int, tr *tracer) (*outcome, error) {
	cfg := c.cfg
	cfg.Workers = workers
	end := tr.begin("suite.generate")
	g, err := c.db.GenerateSuite(c.targets, cfg)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("suite.smc")
	smc, err := g.SetMultiCover()
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("suite.topk")
	topk, err := g.TopKIndependent()
	end()
	if err != nil {
		return nil, err
	}
	c.last, c.lastSols = g, []*qtrtest.Solution{smc, topk}
	return suiteRun(c.db, g, c.lastSols, tr)
}

// validateExec runs prebuilt suites: Run calls the optimizer zero times, so
// a repetition is executor, result cache and comparison only.
type validateExec struct {
	noGate
	db   *qtrtest.DB
	g    *qtrtest.Graph
	sols []*qtrtest.Solution
	// setupCalls is the graph's optimizer-call count when set-up finished;
	// any growth inside a repetition breaks the workload's premise.
	setupCalls int
}

func openValidateExec(seed int64, quick bool, tr *tracer) (campaign, error) {
	scale, rules, k := 15.0, 30, 5
	if quick {
		scale, rules, k = 2, 10, 2
	}
	end := tr.begin("setup.catalog")
	db := qtrtest.OpenTPCH(scale, seed)
	end()
	end = tr.begin("suite.generate")
	g, err := db.GenerateSuite(qtrtest.SingletonTargets(db.ExplorationRuleIDs(rules)),
		qtrtest.SuiteConfig{K: k, Seed: validateCampaignSeed, ExtraOps: 3, Workers: 1})
	end()
	if err != nil {
		return nil, err
	}
	c := &validateExec{db: db, g: g}
	for _, alg := range []struct {
		span  string
		build func() (*qtrtest.Solution, error)
	}{
		{"suite.baseline", g.Baseline},
		{"suite.smc", g.SetMultiCover},
		{"suite.topk", g.TopKIndependent},
	} {
		end := tr.begin(alg.span)
		sol, err := alg.build()
		end()
		if err != nil {
			return nil, err
		}
		c.sols = append(c.sols, sol)
	}
	c.setupCalls = g.OptimizerCalls()
	return c, nil
}

func (c *validateExec) run(workers int, tr *tracer) (*outcome, error) {
	c.g.SetWorkers(workers)
	out, err := suiteRun(c.db, c.g, c.sols, tr)
	if err != nil {
		return nil, err
	}
	if base := c.sols[0]; len(base.Assignments) != len(c.g.Targets)*c.g.K && out.invariant == nil {
		out.invariant = fmt.Errorf("BASELINE has %d assignments, want targets x K = %d",
			len(base.Assignments), len(c.g.Targets)*c.g.K)
	}
	if calls := c.g.OptimizerCalls(); calls != c.setupCalls && out.invariant == nil {
		out.invariant = fmt.Errorf("Run called the optimizer %d times", calls-c.setupCalls)
	}
	// Edge costing happened in set-up; the timed region makes none.
	out.layer["suite.edge_calls"] = 0
	return out, nil
}

// fuzzStar is one plan-guided fuzz campaign on the second schema.
type fuzzStar struct {
	noGate
	db *qtrtest.DB
	n  int
	// cache is the latest run's result cache, kept reachable so that what a
	// campaign holds at its end is measured alike on every workload.
	cache *qtrtest.ResultCache
}

func openFuzzStar(seed int64, quick bool, tr *tracer) (campaign, error) {
	defer tr.begin("setup.catalog")()
	n := 500
	if quick {
		n = 32
	}
	return &fuzzStar{db: qtrtest.OpenStar(1, seed), n: n}, nil
}

func (c *fuzzStar) config(workers int) qtrtest.FuzzConfig {
	return qtrtest.FuzzConfig{Seed: fuzzCampaignSeed, N: c.n, Workers: workers, DB: "star"}
}

func (c *fuzzStar) run(workers int, tr *tracer) (*outcome, error) {
	cfg := c.config(workers)
	c.cache = qtrtest.NewResultCache(cacheBytes)
	cfg.Cache = c.cache
	end := tr.begin("fuzz.run")
	rep, err := c.db.Fuzz(cfg)
	end()
	if err != nil {
		return nil, err
	}
	text, err := rep.JSON()
	if err != nil {
		return nil, err
	}
	skipped := 0
	for _, n := range rep.Skipped {
		skipped += n
	}
	return &outcome{
		checks:       rep.DifferentialChecks + rep.MetamorphicChecks,
		undetermined: rep.Undetermined,
		wrong:        len(rep.Findings),
		cache:        cfg.Cache.Stats(),
		report:       string(text),
		layer: map[string]float64{
			"fuzz.generated":   float64(rep.Generated),
			"fuzz.skipped":     float64(skipped),
			"fuzz.plan_shapes": float64(rep.PlanShapes),
			"fuzz.diff_checks": float64(rep.DifferentialChecks),
			"fuzz.meta_checks": float64(rep.MetamorphicChecks),
		},
	}, nil
}

// verifySweep repeats the bounded-exhaustive rule verifier; it has no
// randomness, so -seed does not reach it.
type verifySweep struct {
	noGate
	sweeps int
	cache  *qtrtest.ResultCache // the latest sweep's, kept reachable like fuzzStar's
}

func openVerifySweep(_ int64, quick bool, _ *tracer) (campaign, error) {
	if quick {
		return &verifySweep{sweeps: 1}, nil
	}
	return &verifySweep{sweeps: 20}, nil
}

func (c *verifySweep) run(workers int, tr *tracer) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}}
	for i := 0; i < c.sweeps; i++ {
		rc := qtrtest.NewResultCache(cacheBytes)
		c.cache = rc
		end := tr.begin("verify.run")
		rep, err := qtrtest.VerifyRules(qtrtest.VerifyConfig{Workers: workers, Cache: rc})
		end()
		if err != nil {
			return nil, err
		}
		out.checks += rep.Pairs - rep.Identical
		out.skips += rep.Identical
		out.undetermined += rep.Undetermined
		out.capped += rep.Skipped
		for _, st := range rep.Stats {
			out.wrong += st.Failing
		}
		st := rc.Stats()
		out.cache.Hits += st.Hits
		out.cache.Misses += st.Misses
		out.cache.Evictions += st.Evictions
		out.cache.Bytes = st.Bytes // of the last sweep: each has its own cache
		out.layer["verify.pairs"] += float64(rep.Pairs)
		out.layer["verify.executed"] += float64(rep.Executed)
		out.layer["verify.identical"] += float64(rep.Identical)
		if i == 0 {
			text, err := rep.JSON()
			if err != nil {
				return nil, err
			}
			out.report = string(text)
		}
	}
	return out, nil
}
