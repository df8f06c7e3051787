// Package fuzz is the plan-guided metamorphic fuzzing subsystem: a seeded,
// deterministic campaign that generates random logical query trees (and,
// optionally, random catalogs), checks each one with the paper's
// differential Plan(q) vs Plan(q,¬R) execution oracle, a metamorphic oracle
// built on known-equivalence rewrites and, when a backend is configured, a
// cross-engine oracle, steers generation QPG-style with a plan-shape
// coverage map, and shrinks the first findings to minimal queries under the
// same check that raised them.
//
// Determinism contract: for a fixed Config (and no Timeout cutoff) the
// report is byte-identical at every worker count. Per-query randomness is
// derived from (Seed, index) via par.DeriveSeed; coverage-guided weight
// updates happen only between fixed-size rounds, with the coverage map
// merged in index order, so every query sees a weight snapshot that depends
// only on the campaign prefix — never on worker scheduling.
package fuzz

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/core/oracle"
	"qtrtest/internal/core/qgen"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/par"
	"qtrtest/internal/physical"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rules"
	"qtrtest/internal/sqlgen"
)

// The campaign's caps are constants because each is part of what a seed
// means: a reproducer line replays a campaign only while they do not vary.
const (
	// maxOps bounds the random-tree operator budget.
	maxOps = 7
	// maxRows caps each plan execution's buffered result; plans over the cap
	// are skipped, not failed.
	maxRows = 20000
	// maxCost skips plans whose estimated cost exceeds it. maxRows only
	// bounds the root output; a fault that drops a join predicate can make an
	// intermediate result explode while the root stays small, and the cost
	// estimate is the deterministic signal that prices that explosion before
	// execution pays for it.
	maxCost = 5e6
	// maxWork caps the total rows produced by all operators of one plan
	// execution, rescans included. It is the runtime backstop behind maxCost:
	// an injected fault mutates the plan after costing, so its estimate can
	// be arbitrarily wrong about the work its output actually takes.
	maxWork = oracle.WorkBudget
	// roundSize is the number of queries per steering round. Coverage
	// feedback adjusts generator weights only between rounds.
	roundSize = 32
	// maxShrunk is how many findings get shrunk, in report order.
	maxShrunk = 8
	// maxShrinkChecks bounds the distinct plan executions one finding's
	// shrink may charge.
	maxShrinkChecks = 300
)

// Config tunes a fuzz campaign.
type Config struct {
	// Seed drives everything: catalog choice (when Catalog is nil), query
	// generation and coverage steering.
	Seed int64
	// N is the number of queries to generate (default 500).
	N int
	// Workers bounds the worker pool; the report is identical for any value.
	Workers int
	// Timeout, when positive, stops the campaign at the next round boundary
	// after the budget elapses. A timed-out report is marked TimedOut and is
	// not workers-deterministic.
	Timeout time.Duration
	// Registry is the rule set under test (default rules.DefaultRegistry;
	// mutation self-tests pass a mutant's registry, which names its mutant in
	// the report and reproducer line).
	Registry *rules.Registry
	// Catalog is the test database (default: RandomCatalog(Seed)).
	Catalog *catalog.Catalog
	// DB labels the catalog in the report and reproducer line ("tpch",
	// "star", "rand"). With no Catalog it must be empty or "rand": the
	// campaign then runs on the random catalog, and no other label would
	// replay it.
	DB string
	// EET enables the expression-level equivalence rewrites (the scalar EET
	// catalog) alongside the tree-level metamorphic rewrites.
	EET bool
	// StopOnFinding stops the campaign at the first round boundary where at
	// least one finding exists. Unlike Timeout, the cutoff is round-granular
	// and depends only on query indices, so the report stays
	// workers-deterministic.
	StopOnFinding bool
	// Backend names the independent engine every base query is additionally
	// replayed on and compared against — the cross-engine oracle that breaks
	// the campaign's self-differential circularity. The one backend, "ref",
	// evaluates the pre-optimizer logical tree on the reference interpreter,
	// so it catches faults the optimizer and the batch engine share. Empty
	// (the default) disables the check, leaving the report byte-identical to
	// a backend-less campaign.
	Backend string
	// Cache, when non-nil, memoizes plan executions across the whole
	// campaign — oracles and shrinker alike. Reports are byte-identical with
	// and without it (the cache differential tests pin that); it only
	// collapses the repeated executions fuzzing is full of: Plan(q,¬R)
	// equal to some earlier alternative, shrink candidates replayed after
	// each accepted reduction, rewrites sharing subplans.
	Cache *rescache.Cache
}

func (c *Config) setDefaults() {
	if c.N <= 0 {
		c.N = 500
	}
	if c.Registry == nil {
		c.Registry = rules.DefaultRegistry()
	}
	if c.Catalog == nil {
		c.Catalog = RandomCatalog(c.Seed)
		if c.DB == "" {
			c.DB = "rand"
		}
	}
	if c.DB == "" {
		c.DB = "custom"
	}
}

// repro formats the reproducer line: the CLI invocation that replays the
// campaign byte-identically at any -workers count. Its global part
// (oracle.Repro) reads -scale from the catalog and -ext from the registry,
// and -mutant comes from the registry too.
func (c *Config) repro() string {
	db := c.DB
	if db == "rand" {
		db = ""
	}
	line := oracle.Repro(db, c.Catalog, c.Registry, c.Backend, &c.Seed) + fmt.Sprintf(" fuzz -n %d", c.N)
	if c.EET {
		line += " -eet"
	}
	if c.DB == "rand" {
		line += " -randcat"
	}
	if m := c.Registry.Mutant(); m != "" {
		line += " -mutant " + m
	}
	return line + "  # any -workers"
}

// rewritesFor returns the campaign's rewrite list: the tree-level catalog,
// plus the EET expression-level catalog when cfg.EET is set.
func rewritesFor(cfg Config) []Rewrite {
	rws := Rewrites()
	if cfg.EET {
		rws = append(rws, eetRewrites()...)
	}
	return rws
}

// campaign bundles the per-run state shared by all workers (all read-only
// during a round).
type campaign struct {
	cfg      Config
	opt      *opt.Optimizer
	gen      *qgen.Generator
	rewrites []Rewrite
	oracle   *oracle.Runner
	// mds recycles the metadata runOne generates a tree against, one per
	// worker at a time: it is only read to render the tree to SQL, and a
	// finding keeps the bound metadata instead.
	mds sync.Pool
}

// finding is the internal form of a Finding, carrying the bound tree and
// metadata needed to shrink it after the campaign.
type finding struct {
	pub  Finding
	tree *logical.Expr
	md   *logical.Metadata
}

// result is one query's outcome, written into an index-addressed slot.
type result struct {
	skip          string // "" when the query executed; else the stage that rejected it
	shape         uint64
	ops           []logical.Op
	planExecs     int
	diffChecks    int
	metaChecks    int
	backendChecks int
	undetermined  int
	findings      []finding
}

// Run executes a fuzz campaign and returns its report.
func Run(cfg Config) (*Report, error) {
	c, err := newCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return c.run(), nil
}

// newCampaign fills in cfg's defaults and builds the campaign's shared state.
func newCampaign(cfg Config) (*campaign, error) {
	if cfg.Catalog == nil && cfg.DB != "" && cfg.DB != "rand" {
		return nil, fmt.Errorf("fuzz: no catalog for DB %q: without one the campaign runs on the random catalog, which only DB \"\" or \"rand\" names", cfg.DB)
	}
	cfg.setDefaults()
	rn, err := oracle.New(oracle.Options{
		Backend: cfg.Backend, Cache: cfg.Cache, MaxRows: maxRows, MaxWork: maxWork,
	})
	if err != nil {
		return nil, err
	}
	o := opt.New(cfg.Registry, cfg.Catalog)
	gen, err := qgen.New(o, qgen.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	c := &campaign{cfg: cfg, opt: o, gen: gen, rewrites: rewritesFor(cfg), oracle: rn}
	c.mds.New = func() any { return logical.NewMetadata(cfg.Catalog) }
	return c, nil
}

// run generates, checks and shrinks the campaign's queries.
func (c *campaign) run() *Report {
	cfg := c.cfg
	rep := &Report{
		Schema: ReportSchema, DB: cfg.DB, Mutant: cfg.Registry.Mutant(), Backend: cfg.Backend,
		Seed: cfg.Seed, N: cfg.N, Findings: []Finding{},
	}
	var deadline time.Time
	if cfg.Timeout > 0 {
		//qtrlint:allow wallclock -timeout is a wall-clock budget checked only at round boundaries; reports produced without hitting it are still deterministic
		deadline = time.Now().Add(cfg.Timeout)
	}

	weights := qgen.DefaultWeights()
	coverage := make(map[uint64]int)
	var found []finding
	for base := 0; base < cfg.N; base += roundSize {
		n := roundSize
		if base+n > cfg.N {
			n = cfg.N - base
		}
		// Workers share this round's weight snapshot read-only; boosts are
		// applied after the round, in index order.
		snap := weights.Clone()
		results := make([]result, n)
		par.ForEach(cfg.Workers, n, func(i int) {
			results[i] = c.runOne(base+i, snap)
		})
		for i := range results {
			r := &results[i]
			if r.skip != "" {
				if rep.Skipped == nil {
					rep.Skipped = make(map[string]int)
				}
				rep.Skipped[r.skip]++
				continue
			}
			rep.Generated++
			rep.PlanExecutions += r.planExecs
			rep.DifferentialChecks += r.diffChecks
			rep.MetamorphicChecks += r.metaChecks
			rep.BackendChecks += r.backendChecks
			rep.Undetermined += r.undetermined
			if coverage[r.shape] == 0 {
				// Novel plan shape: QPG-style steering boosts the operators
				// that produced it, so later rounds sample them more often.
				for _, op := range r.ops {
					weights.Boost(op, 1, 12)
				}
			}
			coverage[r.shape]++
			found = append(found, r.findings...)
		}
		if cfg.StopOnFinding && len(found) > 0 {
			break
		}
		if cfg.Timeout > 0 {
			//qtrlint:allow wallclock see above: round-boundary timeout check
			if time.Now().After(deadline) {
				rep.TimedOut = true
				break
			}
		}
	}
	rep.PlanShapes = len(coverage)

	// Shrink the first maxShrunk findings, in parallel (each shrink is a
	// deterministic function of its finding alone, so slots keep the report
	// deterministic).
	par.ForEach(cfg.Workers, min(len(found), maxShrunk), func(i int) {
		c.shrinkFinding(&found[i])
	})
	for i := range found {
		found[i].pub.Repro = cfg.repro()
		rep.Findings = append(rep.Findings, found[i].pub)
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Query < rep.Findings[j].Query
	})
	return rep
}

// rngPool holds the math/rand generators runOne re-seeds, about 5 KB each:
// Seed resets one's whole state, so it draws what a new one would.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// runOne generates query idx from its derived seed and checks it.
func (c *campaign) runOne(idx int, w *qgen.Weights) result {
	seed := par.DeriveSeed(c.cfg.Seed, idx)
	grng, rng := rngPool.Get().(*rand.Rand), rngPool.Get().(*rand.Rand)
	grng.Seed(seed)
	rng.Seed(par.DeriveSeed(seed, 1))
	md := c.mds.Get().(*logical.Metadata)
	defer c.mds.Put(md)
	md.Reset()
	tree, err := c.gen.ForkRand(grng).RandomTreeWeighted(md, 2+rng.Intn(maxOps-1), w)
	rngPool.Put(grng)
	rngPool.Put(rng)
	if err != nil {
		return result{skip: "generate"}
	}
	if bind.PoisonReleased.Load() { // what the Reset dropped must not be read
		md.Fill(logical.ColumnMeta{Name: "poison", Table: "poison", TableCol: "poison"})
	}
	return c.check(tree, md, idx, seed, nil, nil)
}

// check is the one judgement of a query tree: tree → SQL → bind → optimize →
// execute Plan(q), then the cross-engine oracle, the differential oracle over
// every rule in RuleSet(q) and the metamorphic oracle over every applicable
// rewrite. The campaign passes a nil want and runs every step. The shrinker
// passes the finding it minimizes as want: after the base, only the step that
// filed it runs — the backend, the rule want.Rule or the rewrite
// want.Rewrite — and charge, when non-nil, is handed the identity of every
// execution: the base and the cross-check before they run, an alternative
// after it executes (an identical one executes nothing). A base or an
// alternative is its plan's fingerprint, a cross-check its lowered tree's
// under the prefix "cross|": within one finding's shrink the catalog, the
// caps and each kind's engine are fixed, so nothing else tells two
// executions apart.
func (c *campaign) check(tree *logical.Expr, md *logical.Metadata, idx int, seed int64, want *Finding, charge func(string)) result {
	q, stage, err := c.plan(tree, md)
	if err != nil {
		return result{skip: stage}
	}
	res := q.res
	defer res.Release() // every Plan(q,¬R) below is derived from its memo
	if res.Plan.Cost > maxCost {
		return result{skip: "estcap"}
	}
	r := result{shape: PlanShape(res.Plan), ops: distinctOps(q.bound.Tree)}

	// step reports whether the step filing findings under the backend, rule
	// id or rewrite runs: every step does for the campaign, only the
	// finding's own for the shrinker.
	step := func(backend bool, id rules.ID, rewrite string) bool {
		return want == nil || backend == (want.Kind == KindBackend) && int(id) == want.Rule && rewrite == want.Rewrite
	}
	// add files a finding; plans are Plan(q) and, when there is one, the
	// alternative it was compared with.
	add := func(kind string, id rules.ID, rewrite, detail string, plans ...*physical.Expr) {
		f := finding{
			pub: Finding{
				Query: idx, Seed: seed, Kind: kind, Rule: int(id), Rewrite: rewrite,
				SQL: q.sql, RuleSet: fmt.Sprintf("%v", res.RuleSet.Sorted()), Detail: detail,
			},
			tree: q.bound.Tree, md: q.bound.MD,
		}
		if len(plans) > 0 {
			f.pub.BasePlan = plans[0].String()
		}
		if len(plans) > 1 {
			f.pub.AltPlan = plans[1].String()
		}
		r.findings = append(r.findings, f)
	}

	p := oracle.Prepare(res.Plan)
	if charge != nil {
		charge(p.Hash)
	}
	base, err := c.oracle.Base(c.cfg.Catalog, p)
	if errors.Is(err, exec.ErrRowLimit) {
		r.skip = "rowcap"
		return r
	}
	if err != nil {
		add(KindExecError, 0, "", err.Error(), res.Plan)
		return r
	}
	r.planExecs++

	// judge files a comparison's outcome under kind and passes the verdict
	// on for the caller's accounting.
	judge := func(out oracle.Outcome, kind string, id rules.ID, rewrite string, plans ...*physical.Expr) oracle.Verdict {
		switch out.Verdict {
		case oracle.Mismatch:
			add(kind, id, rewrite, out.Detail, plans...)
		case oracle.Undetermined:
			r.undetermined++
		}
		return out.Verdict
	}
	// edge runs an alternative plan against the base. An execution error on
	// it is a finding of its own and yields no verdict (the zero one).
	edge := func(alt *physical.Expr, kind string, id rules.ID, rewrite string) oracle.Verdict {
		p := oracle.Prepare(alt)
		out, err := c.oracle.Edge(&base, p)
		if charge != nil && out.Verdict != oracle.Identical {
			charge(p.Hash)
		}
		if err != nil {
			add(KindExecError, id, rewrite, err.Error(), res.Plan, alt)
			return 0
		}
		return judge(out, kind, id, rewrite, res.Plan, alt)
	}

	// Cross-engine oracle: replay the query on the independent backend and
	// compare against the base execution. A budget trip on the backend skips
	// the comparison per the budget-parity contract.
	if c.oracle.HasBackend() && step(true, 0, "") {
		cross := oracle.PrepareCross(q.bound.Tree)
		if charge != nil {
			charge("cross|" + cross.Hash)
		}
		out, err := c.oracle.Cross(&base, cross)
		if err != nil {
			out = oracle.Outcome{Verdict: oracle.Mismatch, Detail: err.Error()}
		}
		if judge(out, KindBackend, 0, "", res.Plan).Compared() {
			r.backendChecks++
		}
	}

	// Differential oracle: disable each exercised rule in turn and compare.
	// An unplannable Plan(q,¬r) (r was the only implementation of some
	// operator) is skipped, not reported: losing plannability is expected,
	// wrong results are not. Any other error skips the query, like the base's.
	for _, id := range res.RuleSet.Sorted() {
		if !step(false, id, "") {
			continue
		}
		alt, err := res.Without(id)
		if err != nil && !errors.Is(err, opt.ErrNoPlan) {
			return result{skip: "optimize"}
		}
		if err != nil || alt.Cost > maxCost {
			continue
		}
		if edge(alt, KindDifferential, id, "").Compared() {
			r.planExecs++
			r.diffChecks++
		}
	}

	// Metamorphic oracle: each applicable rewrite is re-planned from its SQL
	// and compared against the base execution. A rewrite that re-plans to
	// the base plan is a (trivially passing) check that executed nothing.
	for _, rw := range c.rewrites {
		if !step(false, 0, rw.Name) {
			continue
		}
		alt := rw.Apply(q.bound.Tree, q.bound.MD, seed)
		if alt == nil {
			continue
		}
		aq, _, err := c.plan(alt, q.bound.MD)
		if err != nil {
			add(KindRewriteError, 0, rw.Name, err.Error())
			continue
		}
		aq.res.Release()
		if aq.res.Plan.Cost > maxCost {
			continue
		}
		switch v := edge(aq.res.Plan, KindMetamorphic, 0, rw.Name); {
		case v.Compared():
			r.planExecs++
			r.metaChecks++
		case v == oracle.Identical:
			r.metaChecks++
		}
	}
	return r
}

// planned is a query tree taken through the front end: its SQL, the tree
// bound back from that SQL, and the optimization — the caller's to release.
type planned struct {
	sql   string
	bound *bind.Bound
	res   *opt.Result
}

// plan renders a logical tree to SQL, re-binds and optimizes it: the one
// front end of the generated query, of each rewrite's alternative and of
// each shrink candidate. The metadata may be a superset of the tree's
// columns (a rewrite's or a shrink candidate's is the original query's),
// which sqlgen accepts because it names columns by ID. On failure it returns
// the stage that failed — "render", "bind" or "optimize" — and an error that
// names it.
func (c *campaign) plan(tree *logical.Expr, md *logical.Metadata) (planned, string, error) {
	var q planned
	var err error
	if q.sql, err = sqlgen.Generate(tree, md); err != nil {
		return q, "render", fmt.Errorf("render: %w", err)
	}
	if q.bound, err = bind.BindSQL(q.sql, c.cfg.Catalog); err != nil {
		return q, "bind", fmt.Errorf("bind: %w (sql: %s)", err, q.sql)
	}
	if q.res, err = c.opt.Optimize(q.bound.Tree, q.bound.MD, opt.Options{}); err != nil {
		return q, "optimize", fmt.Errorf("optimize: %w", err)
	}
	return q, "", nil
}

// distinctOps returns the distinct logical operators of a tree, sorted, for
// coverage-steering boosts.
func distinctOps(tree *logical.Expr) []logical.Op {
	seen := make(map[logical.Op]bool)
	tree.Walk(func(e *logical.Expr) { seen[e.Op] = true })
	var out []logical.Op
	for _, op := range qgen.WeightedOps {
		if seen[op] {
			out = append(out, op)
		}
	}
	return out
}
