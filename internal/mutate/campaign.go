package mutate

import (
	"fmt"
	"io"
	"strings"

	"qtrtest/internal/catalog"
	"qtrtest/internal/core/suite"
	"qtrtest/internal/opt"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rules"
)

// Config tunes a mutation campaign.
type Config struct {
	// K is the test-suite size per target (queries per rule).
	K int
	// Targets adds the first N exploration rules as extra singleton targets
	// beside the mutated rule itself, so that suite compression has queries
	// to share and the algorithms' suites can genuinely differ.
	Targets int
	// ExtraOps pads generated queries with extra random operators.
	ExtraOps int
	// Seed drives query generation (per-target seeding keeps the campaign
	// deterministic for any worker count).
	Seed int64
	// MaxTrials bounds per-query generation attempts.
	MaxTrials int
	// Workers bounds the worker pool used inside each mutant's pipeline;
	// mutants themselves run sequentially, so reports are byte-identical for
	// every worker count.
	Workers int
	// Mutants overrides the shipped catalog (nil means Mutants()).
	Mutants []Mutant
	// Cache, when non-nil, memoizes plan executions across the whole
	// campaign. One cache serves every mutant and every algorithm: a plan's
	// result depends only on (plan, catalog, caps, engine), not on which
	// registry produced it, and the three algorithms' suites overlap heavily
	// in the plans they execute. Scores are byte-identical with and without
	// it.
	Cache *rescache.Cache
	// Backend names the independent execution backend, "ref" (the reference
	// engine); "" disables it. When set, every suite run additionally replays each base query there and
	// records cross-engine disagreements — an oracle that catches mutants
	// whose fault survives into both sides of the self-differential
	// comparison.
	Backend string
}

func (c *Config) setDefaults() {
	if c.K <= 0 {
		// Mutation campaigns want query diversity: aggregate and sort faults
		// are invisible on degenerate queries (single-row groups, wrapped
		// sorts), and at small k a seed can draw only degenerate queries for
		// a target. k=12 catches every shipped mutant across the seeds and
		// scales exercised in the tests.
		c.K = 12
	}
	if c.Targets < 0 {
		c.Targets = 0
	}
	if c.MaxTrials <= 0 {
		c.MaxTrials = 512
	}
	if c.Mutants == nil {
		c.Mutants = Mutants()
	}
}

// AlgoNames lists the suite-construction algorithms a campaign scores, in
// report order. BASELINE is the uncompressed suite; SMC and TOPK are the
// paper's compression algorithms.
var AlgoNames = []string{"BASELINE", "SMC", "TOPK"}

// AlgoScore records how one algorithm's suite fared against one mutant.
type AlgoScore struct {
	Algo string
	// Caught reports that running the suite produced at least one mismatch:
	// the injected bug was detected.
	Caught bool
	// OnTarget reports that a mismatch was attributed to the mutated rule's
	// own target (a bug can also surface through another rule's edges).
	OnTarget bool
	// Detail is the first mismatch's oracle diagnosis (empty if not caught).
	Detail           string
	PlanExecutions   int
	SkippedIdentical int
	Undetermined     int
	// BackendChecks and BackendDisagreements report the cross-engine oracle
	// (Config.Backend): base queries replayed on the independent backend and
	// how many of those replays disagreed with the mutated pipeline. A
	// disagreement counts as a catch even when no edge mismatched.
	BackendChecks        int
	BackendDisagreements int
}

// MutantResult is the outcome of running the full pipeline against one
// mutant.
type MutantResult struct {
	Mutant  Mutant
	Queries int
	Algos   []AlgoScore
	// SQL, BasePlan and EdgePlan carry the plan-diff evidence from the first
	// catching mismatch: the query, the (wrong) Plan(q) produced with the
	// mutated rule, and the Plan(q,¬R) it was compared against.
	SQL      string
	BasePlan string
	EdgePlan string
}

// Caught reports whether the named algorithm's suite caught the mutant.
func (r *MutantResult) Caught(algo string) bool {
	for _, a := range r.Algos {
		if a.Algo == algo {
			return a.Caught
		}
	}
	return false
}

// Score is the mutation-score report of a campaign: which injected bugs each
// algorithm's suite catches.
type Score struct {
	Results []MutantResult
}

// CaughtBy counts the mutants the named algorithm's suite caught.
func (s *Score) CaughtBy(algo string) int {
	n := 0
	for i := range s.Results {
		if s.Results[i].Caught(algo) {
			n++
		}
	}
	return n
}

// Print renders the mutation-score table; with diff=true it also prints the
// plan-diff evidence per caught mutant.
func (s *Score) Print(w io.Writer, diff bool) {
	fmt.Fprintf(w, "%-42s %-9s %-9s %-9s %s\n", "mutant", "BASELINE", "SMC", "TOPK", "first detection")
	mark := func(a AlgoScore) string {
		if !a.Caught {
			return "missed"
		}
		if a.OnTarget {
			return "caught"
		}
		return "caught*"
	}
	for i := range s.Results {
		r := &s.Results[i]
		detail := ""
		for _, a := range r.Algos {
			if a.Caught && detail == "" {
				detail = a.Detail
			}
		}
		fmt.Fprintf(w, "%-42s %-9s %-9s %-9s %s\n", r.Mutant.String(),
			mark(r.Algos[0]), mark(r.Algos[1]), mark(r.Algos[2]), detail)
		if diff && r.BasePlan != "" {
			fmt.Fprintf(w, "    query: %s\n", r.SQL)
			fmt.Fprintf(w, "    Plan(q) with mutated rule:\n%s", indent(r.BasePlan, "      "))
			if r.EdgePlan != "" {
				fmt.Fprintf(w, "    Plan(q,¬R):\n%s", indent(r.EdgePlan, "      "))
			}
		}
		for _, a := range r.Algos {
			if a.BackendDisagreements > 0 {
				fmt.Fprintf(w, "    %s: %d of %d backend cross-checks disagreed\n",
					a.Algo, a.BackendDisagreements, a.BackendChecks)
			}
		}
	}
	n := len(s.Results)
	fmt.Fprintf(w, "mutation score: BASELINE %d/%d, SMC %d/%d, TOPK %d/%d\n",
		s.CaughtBy("BASELINE"), n, s.CaughtBy("SMC"), n, s.CaughtBy("TOPK"), n)
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// Run executes the mutation campaign: for every mutant, build an optimizer
// over the mutated registry, generate a suite (targets: the mutated rule
// plus cfg.Targets healthy exploration rules), compress it with each
// algorithm, execute each suite through Graph.Run, and record which
// algorithms' suites catch the injected bug. Mutants run sequentially so the
// report order is deterministic; all parallelism lives inside each mutant's
// generate/compress/execute pipeline, which is itself deterministic for any
// worker count.
func Run(cat *catalog.Catalog, cfg Config) (*Score, error) {
	cfg.setDefaults()
	score := &Score{}
	for _, m := range cfg.Mutants {
		res, err := runOne(cat, m, cfg)
		if err != nil {
			return nil, fmt.Errorf("mutate: %s: %w", m, err)
		}
		score.Results = append(score.Results, *res)
	}
	return score, nil
}

// targetsFor builds the campaign target list for one mutant: the mutated
// rule first, then the first cfg.Targets healthy exploration rules.
func targetsFor(m Mutant, n int) []suite.Target {
	targets := []suite.Target{{Rules: []rules.ID{m.Rule}}}
	for _, r := range rules.ExplorationRules() {
		if n <= 0 {
			break
		}
		if r.ID() == m.Rule {
			continue
		}
		targets = append(targets, suite.Target{Rules: []rules.ID{r.ID()}})
		n--
	}
	return targets
}

func runOne(cat *catalog.Catalog, m Mutant, cfg Config) (*MutantResult, error) {
	o := opt.New(m.Registry(), cat)
	g, err := suite.Generate(o, targetsFor(m, cfg.Targets), suite.GenConfig{
		K: cfg.K, Seed: cfg.Seed, ExtraOps: cfg.ExtraOps,
		MaxTrials: cfg.MaxTrials, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	g.SetCache(cfg.Cache)
	if err := g.SetBackend(cfg.Backend); err != nil {
		return nil, err
	}
	res := &MutantResult{Mutant: m, Queries: len(g.Queries)}
	algos := []struct {
		name string
		fn   func() (*suite.Solution, error)
	}{
		{"BASELINE", g.Baseline},
		{"SMC", g.SetMultiCover},
		{"TOPK", g.TopKIndependent},
	}
	for _, a := range algos {
		sol, err := a.fn()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		rep, err := g.Run(sol, o, cat)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		as := AlgoScore{
			Algo:           a.name,
			PlanExecutions: rep.PlanExecutions, SkippedIdentical: rep.SkippedIdentical,
			Undetermined:  len(rep.Undetermined),
			BackendChecks: rep.BackendChecks, BackendDisagreements: len(rep.BackendDisagreements),
		}
		if len(rep.BackendDisagreements) > 0 {
			bd := &rep.BackendDisagreements[0]
			as.Caught = true
			as.Detail = fmt.Sprintf("backend cross-check: %s", bd.Detail)
			if res.BasePlan == "" && bd.Query.BasePlan != nil {
				res.SQL, res.BasePlan = bd.Query.SQL, bd.Query.BasePlan.String()
			}
		}
		if len(rep.Mismatches) > 0 {
			mm := &rep.Mismatches[0]
			as.Caught = true
			as.Detail = fmt.Sprintf("target %s: %s", mm.Target, mm.Detail)
			for i := range rep.Mismatches {
				if rep.Mismatches[i].Target.CoveredBy(rules.NewSet(m.Rule)) {
					as.OnTarget = true
					mm = &rep.Mismatches[i]
					break
				}
			}
			if res.BasePlan == "" {
				res.SQL, res.BasePlan, res.EdgePlan = mm.Query.SQL, mm.BasePlan, mm.EdgePlan
			}
		}
		res.Algos = append(res.Algos, as)
	}
	return res, nil
}
