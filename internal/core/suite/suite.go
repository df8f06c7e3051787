// Package suite implements correctness-test suites for transformation rules
// (§2.3, §4, §5 of the paper): suite generation (k distinct queries per
// rule or rule pair), the bipartite rule/query graph with node costs Cost(q)
// and edge costs Cost(q,¬R), the BASELINE execution strategy, the
// SetMultiCover and TopKIndependent compression algorithms (the latter prices
// only the edges §5.3.1's monotonicity leaves in play), and the
// execution/validation runner that detects correctness bugs.
package suite

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"qtrtest/internal/core/oracle"
	"qtrtest/internal/core/qgen"
	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/par"
	"qtrtest/internal/physical"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rules"
)

// Target is what one test suite validates: a single rule or a rule pair.
type Target struct {
	Rules []rules.ID
}

// SingletonTargets returns one target per rule.
func SingletonTargets(ids []rules.ID) []Target {
	out := make([]Target, len(ids))
	for i, id := range ids {
		out[i] = Target{Rules: []rules.ID{id}}
	}
	return out
}

// PairTargets returns all C(n,2) rule-pair targets.
func PairTargets(ids []rules.ID) []Target {
	var out []Target
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			out = append(out, Target{Rules: []rules.ID{ids[i], ids[j]}})
		}
	}
	return out
}

// Set returns the target's rules as a Set.
func (t Target) Set() rules.Set { return rules.NewSet(t.Rules...) }

// CoveredBy reports whether the query's RuleSet exercises every rule of the
// target.
func (t Target) CoveredBy(rs rules.Set) bool {
	for _, id := range t.Rules {
		if !rs.Contains(id) {
			return false
		}
	}
	return true
}

// String renders the target, e.g. "{3}" or "{3,7}".
func (t Target) String() string {
	parts := make([]string, len(t.Rules))
	for i, id := range t.Rules {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Query is one test case in the overall suite TS.
type Query struct {
	Idx     int
	SQL     string
	Tree    *logical.Expr
	MD      *logical.Metadata
	RuleSet rules.Set
	// Cost is the node cost Cost(q): the optimizer-estimated cost of the
	// plan with all rules enabled.
	Cost float64
	// BasePlan is Plan(q), captured when the query was generated (the
	// generation trial already optimized it); the correctness runner reuses
	// it instead of re-invoking the optimizer per execution.
	BasePlan *physical.Expr
	// GeneratedFor is the index of the target whose suite TS_i this query
	// was generated for (the BASELINE method executes exactly those).
	GeneratedFor int
}

// Graph is the bipartite graph of §4.1: rule targets on one side, queries on
// the other, an edge (t,q) wherever optimizing q exercises every rule of t.
// Edge costs Cost(q,¬R) are computed lazily through an edgeCoster: an
// algorithm pays one optimizer call per edge it asks about, and none for an
// edge it never reads (Figure 14 counts them).
type Graph struct {
	Targets []Target
	Queries []*Query
	// Adj[t] lists indices of queries covering target t.
	Adj [][]int

	K int

	coster *edgeCoster
	// workers bounds the worker pool used by the parallel algorithm and
	// execution paths; <= 0 means GOMAXPROCS.
	workers int
	// ox is how Run executes and compares: result cache (shared across Run
	// calls and graphs) and cross-check backend; Run adds the work budget.
	ox oracle.Options
}

// Workers returns the graph's worker-pool bound (<= 0 means GOMAXPROCS).
func (g *Graph) Workers() int { return g.workers }

// SetWorkers overrides the worker-pool bound for subsequent algorithm runs
// and suite executions.
func (g *Graph) SetWorkers(n int) { g.workers = n }

// SetCache routes Run's plan executions through a shared result cache.
// Reports are byte-identical with and without one; the cache differential
// tests hold the suite to that.
func (g *Graph) SetCache(c *rescache.Cache) { g.ox.Cache = c }

// SetBackend enables the independent-backend cross-check: Run additionally
// replays every distinct base query on the named engine ("ref", the
// reference engine) and reports disagreements. An empty name disables the
// check (the default); reports are byte-identical to a backend-less run then.
func (g *Graph) SetBackend(name string) error {
	ox := g.ox
	ox.Backend = name
	if _, err := oracle.New(ox); err != nil {
		return err
	}
	g.ox = ox
	return nil
}

// edgeKey identifies one edge (q, ¬R) of the bipartite graph. Targets are
// singleton rules or rule pairs, so two rule IDs suffice (r2 is zero for
// singletons); a comparable struct key avoids the per-lookup allocation a
// formatted string key would pay in the hottest loop of SMC/TOPK.
type edgeKey struct {
	q      int
	r1, r2 rules.ID
}

func keyOf(q int, t Target) edgeKey {
	k := edgeKey{q: q, r1: t.Rules[0]}
	if len(t.Rules) > 1 {
		k.r2 = t.Rules[1]
	}
	return k
}

// edgeCoster computes and caches Cost(q, ¬R), counting optimizer calls. It
// is safe for concurrent use: one mutex guards the map, and each entry
// carries a sync.Once so that concurrent requests for the same edge optimize
// exactly once (single-flight) — the call counter stays exact under any
// parallel schedule, which Figure 14's accounting requires.
type edgeCoster struct {
	o     *opt.Optimizer
	calls atomic.Int64
	mu    sync.Mutex
	m     map[edgeKey]*edgeEntry
}

type edgeEntry struct {
	once sync.Once
	res  edgeResult
}

type edgeResult struct {
	cost float64
	plan *physical.Expr
}

func newEdgeCoster(o *opt.Optimizer) *edgeCoster {
	return &edgeCoster{o: o, m: make(map[edgeKey]*edgeEntry)}
}

// entry returns the single-flight cache entry for an edge, creating it if
// absent. Only the entry's creator-or-first-caller runs the optimizer.
func (ec *edgeCoster) entry(k edgeKey) *edgeEntry {
	ec.mu.Lock()
	e, ok := ec.m[k]
	if !ok {
		e = &edgeEntry{}
		ec.m[k] = e
	}
	ec.mu.Unlock()
	return e
}

// prime seeds the cache with a known edge cost without consuming an
// optimizer call; tests use it to build synthetic graphs. The cost is clamped
// from below at Cost(q), the lower bound edge puts on an optimized one to
// restore TOPK's invariant whatever broke it (ROADMAP item 19).
func (ec *edgeCoster) prime(q *Query, t Target, cost float64) {
	e := ec.entry(keyOf(q.Idx, t))
	e.once.Do(func() { e.res = edgeResult{cost: math.Max(cost, q.Cost)} })
}

// cost returns Cost(q,¬R) for the target's rules, invoking the optimizer on
// a cache miss. A query that cannot be planned at all with the rules
// disabled costs +Inf.
func (ec *edgeCoster) cost(q *Query, t Target) float64 {
	return ec.edge(q, t).cost
}

func (ec *edgeCoster) edge(q *Query, t Target) edgeResult {
	e := ec.entry(keyOf(q.Idx, t))
	e.once.Do(func() {
		ec.calls.Add(1)
		res, err := ec.o.Optimize(q.Tree, q.MD, opt.Options{Disabled: t.Set()})
		if err != nil {
			e.res = edgeResult{cost: math.Inf(1)}
			return
		}
		res.Release()
		// For an ideal optimizer Cost(q) ≤ Cost(q,¬R): the search space with
		// a rule disabled is a subset of the full one (§5.2). Ours breaks it
		// often (24 of 112 pair edges per schema, ROADMAP item 19), and not
		// only where a search hit its expression budget. The clamp is a lower
		// bound that restores the invariant TopKIndependent's cut-off relies
		// on; it does not fix the cost it replaces.
		e.res = edgeResult{cost: math.Max(res.Cost, q.Cost), plan: res.Plan}
	})
	return e.res
}

// OptimizerCalls reports how many Cost(q,¬R) optimizations have run so far.
func (g *Graph) OptimizerCalls() int { return int(g.coster.calls.Load()) }

// EdgeCost exposes Cost(q,¬R) for query index q and target t.
func (g *Graph) EdgeCost(q int, t Target) float64 {
	return g.coster.cost(g.Queries[q], t)
}

// EdgePlan returns the plan Plan(q,¬R) behind an edge.
func (g *Graph) EdgePlan(q int, t Target) *physical.Expr {
	return g.coster.edge(g.Queries[q], t).plan
}

// GenConfig configures suite generation.
type GenConfig struct {
	// K is the test-suite size: distinct queries per target (§2.3).
	K int
	// ExtraOps pads queries with extra operators so correctness tests are
	// non-trivial (§2.3).
	ExtraOps int
	// Seed drives the generator.
	Seed int64
	// MaxTrials bounds per-query generation attempts.
	MaxTrials int
	// Workers bounds the worker pool used for generation, edge costing and
	// suite execution; <= 0 means runtime.GOMAXPROCS(0). Results are
	// byte-identical for every worker count: each target's generator is
	// seeded from (Seed, target index), never from shared RNG state.
	Workers int
}

// Generate builds the overall test suite TS = ∪ TS_i for the given targets
// and assembles the bipartite graph. Targets are generated on a bounded
// worker pool (cfg.Workers); per-target results land in index-addressed
// slots and are flattened in target order, so the suite — including query
// indices — does not depend on the worker count.
func Generate(o *opt.Optimizer, targets []Target, cfg GenConfig) (*Graph, error) {
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.MaxTrials <= 0 {
		cfg.MaxTrials = 512
	}
	gen, err := qgen.New(o, qgen.Config{Seed: cfg.Seed, MaxTrials: cfg.MaxTrials, ExtraOps: cfg.ExtraOps})
	if err != nil {
		return nil, err
	}
	g := &Graph{
		Targets: targets,
		K:       cfg.K,
		coster:  newEdgeCoster(o),
		workers: cfg.Workers,
	}
	perTarget := make([][]*Query, len(targets))
	err = par.ForEachErr(cfg.Workers, len(targets), func(ti int) error {
		t := targets[ti]
		wgen := gen.Fork(par.DeriveSeed(cfg.Seed, ti))
		seen := make(map[string]bool)
		qs := make([]*Query, 0, cfg.K)
		dups := 0
		for len(qs) < cfg.K {
			q, err := generateOne(wgen, t)
			if err != nil {
				return fmt.Errorf("suite: generating query %d for target %s: %w", len(qs)+1, t, err)
			}
			if seen[q.SQL] {
				// The paper requires k distinct queries per target; retry, but
				// bounded — a generator whose query space for this target holds
				// fewer than k distinct queries would otherwise loop forever.
				dups++
				if dups >= cfg.MaxTrials {
					return fmt.Errorf("suite: only %d distinct queries for target %s after %d duplicate trials (k=%d)",
						len(qs), t, dups, cfg.K)
				}
				continue
			}
			seen[q.SQL] = true
			qs = append(qs, q)
		}
		perTarget[ti] = qs
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ti, qs := range perTarget {
		for _, q := range qs {
			q.Idx = len(g.Queries)
			q.GeneratedFor = ti
			g.Queries = append(g.Queries, q)
		}
	}
	g.buildAdjacency()
	return g, nil
}

func generateOne(gen *qgen.Generator, t Target) (*Query, error) {
	var res *qgen.Query
	var err error
	if len(t.Rules) == 2 {
		res, err = gen.GeneratePatternPair(t.Rules[0], t.Rules[1])
	} else {
		res, err = gen.GeneratePattern(t.Rules[0])
	}
	if err != nil {
		return nil, err
	}
	return &Query{
		SQL: res.SQL, Tree: res.Tree, MD: res.MD,
		RuleSet: res.RuleSet, Cost: res.Cost,
		BasePlan: res.Plan,
	}, nil
}

func (g *Graph) buildAdjacency() {
	g.Adj = make([][]int, len(g.Targets))
	for ti, t := range g.Targets {
		for qi, q := range g.Queries {
			if t.CoveredBy(q.RuleSet) {
				g.Adj[ti] = append(g.Adj[ti], qi)
			}
		}
	}
}

// Assignment maps one query to one target in a solution.
type Assignment struct {
	Target int
	Query  int
	// EdgeCost is Cost(q, ¬R) for this edge.
	EdgeCost float64
}

// Solution is a valid subgraph per §4.1: every target has exactly K distinct
// queries assigned.
type Solution struct {
	Name        string
	Assignments []Assignment
	// TotalCost = Σ_{distinct queries used} Cost(q) + Σ_edges Cost(q,¬R):
	// the estimated cost of executing the suite, with Plan(q) shared across
	// targets that reuse the query.
	TotalCost float64
	// OptimizerCalls consumed while computing the solution (edge-cost
	// optimizations), for Figure 14.
	OptimizerCalls int
}

// finalize computes TotalCost from the assignments.
func (g *Graph) finalize(name string, asg []Assignment, shareNodeCost bool) *Solution {
	sort.Slice(asg, func(i, j int) bool {
		if asg[i].Target != asg[j].Target {
			return asg[i].Target < asg[j].Target
		}
		return asg[i].Query < asg[j].Query
	})
	total := 0.0
	seen := make(map[int]bool)
	for _, a := range asg {
		if shareNodeCost {
			if !seen[a.Query] {
				seen[a.Query] = true
				total += g.Queries[a.Query].Cost
			}
		} else {
			total += g.Queries[a.Query].Cost
		}
		total += a.EdgeCost
	}
	return &Solution{Name: name, Assignments: asg, TotalCost: total}
}

// Validate checks the §4.1 invariants: each target has exactly K distinct
// queries, and every assignment is a real edge.
func (g *Graph) Validate(sol *Solution) error {
	perTarget := make(map[int]map[int]bool)
	for _, a := range sol.Assignments {
		if a.Target < 0 || a.Target >= len(g.Targets) || a.Query < 0 || a.Query >= len(g.Queries) {
			return fmt.Errorf("suite: assignment out of range: %+v", a)
		}
		if !g.Targets[a.Target].CoveredBy(g.Queries[a.Query].RuleSet) {
			return fmt.Errorf("suite: query %d does not cover target %s", a.Query, g.Targets[a.Target])
		}
		m := perTarget[a.Target]
		if m == nil {
			m = make(map[int]bool)
			perTarget[a.Target] = m
		}
		if m[a.Query] {
			return fmt.Errorf("suite: duplicate assignment of query %d to target %s", a.Query, g.Targets[a.Target])
		}
		m[a.Query] = true
	}
	for ti, t := range g.Targets {
		if len(perTarget[ti]) != g.K {
			return fmt.Errorf("suite: target %s has %d queries, want %d", t, len(perTarget[ti]), g.K)
		}
	}
	return nil
}
