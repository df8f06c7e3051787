// Package experiments regenerates every figure of the paper's evaluation
// (§6, Figures 8–14) against this repository's substrate, plus Figure 15,
// an extension: the mutation score of the correctness oracle under
// rule-mutation fault injection. Absolute numbers differ from the paper
// (different optimizer, rules and hardware); the shapes under test are
// documented per figure in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"qtrtest/internal/core/qgen"
	"qtrtest/internal/core/suite"
	"qtrtest/internal/mutate"
	"qtrtest/internal/opt"
	"qtrtest/internal/par"
	"qtrtest/internal/rules"
)

// Config scales the experiments.
type Config struct {
	// Seed drives all generators.
	Seed int64
	// Quick shrinks rule counts and suite sizes so the full set of figures
	// runs in seconds rather than minutes.
	Quick bool
	// MaxTrials caps per-target generation attempts (also the value
	// recorded when RANDOM exhausts its budget).
	MaxTrials int
	// Workers bounds the campaign worker pool (<= 0 means GOMAXPROCS). The
	// figure series — trial counts, suite costs, optimizer calls — are
	// byte-identical for every worker count; only wall-clock time changes.
	Workers int
}

// Runner runs every figure on one optimizer.
type Runner struct {
	cfg Config
	opt *opt.Optimizer
}

// NewRunner runs the figures on o, an optimizer over the default registry
// and a TPC-H catalog.
func NewRunner(o *opt.Optimizer, cfg Config) *Runner {
	if cfg.MaxTrials <= 0 {
		cfg.MaxTrials = 256
	}
	return &Runner{cfg: cfg, opt: o}
}

func (r *Runner) explorationIDs(n int) []rules.ID {
	var ids []rules.ID
	for _, rule := range rules.ExplorationRules() {
		ids = append(ids, rule.ID())
		if n > 0 && len(ids) == n {
			break
		}
	}
	return ids
}

func (r *Runner) newGenerator(seed int64) (*qgen.Generator, error) {
	return qgen.New(r.opt, qgen.Config{Seed: seed, MaxTrials: r.cfg.MaxTrials})
}

// ---------------------------------------------------------------------------
// Figure 8: RANDOM vs PATTERN trials per singleton rule.

// GenRow is one generation measurement.
type GenRow struct {
	Label          string
	RandomTrials   int
	PatternTrials  int
	RandomElapsed  time.Duration
	PatternElapsed time.Duration
	RandomFailed   bool
	PatternFailed  bool
}

// Fig8Result holds per-rule trial counts.
type Fig8Result struct {
	Rows []GenRow
}

// Totals sums trials across rows.
func (f *Fig8Result) Totals() (random, pattern int) {
	for _, r := range f.Rows {
		random += r.RandomTrials
		pattern += r.PatternTrials
	}
	return random, pattern
}

// Fig8 measures, for every exploration rule, the number of query-generation
// trials RANDOM and PATTERN need to find a query exercising the rule. Rules
// are measured on the campaign worker pool; every rule's generators are
// seeded from (Seed, rule id) alone, so the trial counts are identical for
// any worker count.
func (r *Runner) Fig8() (*Fig8Result, error) {
	n := 0 // all
	if r.cfg.Quick {
		n = 10
	}
	ids := r.explorationIDs(n)
	rows := make([]GenRow, len(ids))
	err := par.ForEachErr(r.cfg.Workers, len(ids), func(i int) error {
		id := ids[i]
		rule, err := r.opt.Registry().ByID(id)
		if err != nil {
			return err
		}
		row := GenRow{Label: fmt.Sprintf("%d:%s", id, rule.Name())}

		gr, err := r.newGenerator(r.cfg.Seed + int64(id))
		if err != nil {
			return err
		}
		if q, err := gr.GenerateRandom([]rules.ID{id}); err != nil {
			row.RandomTrials = r.cfg.MaxTrials
			row.RandomFailed = true
		} else {
			row.RandomTrials = q.Trials
			row.RandomElapsed = q.Elapsed
		}

		gp, err := r.newGenerator(r.cfg.Seed + 1000 + int64(id))
		if err != nil {
			return err
		}
		if q, err := gp.GeneratePattern(id); err != nil {
			row.PatternTrials = r.cfg.MaxTrials
			row.PatternFailed = true
		} else {
			row.PatternTrials = q.Trials
			row.PatternElapsed = q.Elapsed
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Rows: rows}, nil
}

// Print renders the figure as a table.
func (f *Fig8Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: trials to generate a query per singleton rule (RANDOM vs PATTERN)\n")
	fmt.Fprintf(w, "%-28s %8s %9s\n", "rule", "RANDOM", "PATTERN")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-28s %8s %9s\n", r.Label, trialStr(r.RandomTrials, r.RandomFailed), trialStr(r.PatternTrials, r.PatternFailed))
	}
	tr, tp := f.Totals()
	fmt.Fprintf(w, "%-28s %8d %9d   (paper: 234 vs 38)\n", "TOTAL", tr, tp)
}

func trialStr(n int, failed bool) string {
	if failed {
		return fmt.Sprintf(">%d", n)
	}
	return fmt.Sprintf("%d", n)
}

// ---------------------------------------------------------------------------
// Figures 9 and 10: RANDOM vs PATTERN for rule pairs (trials and time).

// PairGenResult aggregates a rule-pair generation sweep for one n.
type PairGenResult struct {
	N              int
	Pairs          int
	RandomTrials   int
	PatternTrials  int
	RandomElapsed  time.Duration
	PatternElapsed time.Duration
	RandomFailures int
	PatternFailed  int
}

// PairGeneration measures trials and time to generate one query per rule
// pair over the first n exploration rules. It backs both Figure 9 (trials)
// and Figure 10 (time). Pairs run on the campaign worker pool, each with
// generators forked from (Seed, pair index); per-pair measurements land in
// index-addressed slots and are summed in pair order, so the trial series
// does not depend on the worker count.
func (r *Runner) PairGeneration(n int) (*PairGenResult, error) {
	ids := r.explorationIDs(n)
	gr, err := r.newGenerator(r.cfg.Seed + 31)
	if err != nil {
		return nil, err
	}
	gp, err := r.newGenerator(r.cfg.Seed + 67)
	if err != nil {
		return nil, err
	}
	var pairs [][2]rules.ID
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			pairs = append(pairs, [2]rules.ID{ids[i], ids[j]})
		}
	}
	type pairRow struct {
		randomTrials, patternTrials   int
		randomElapsed, patternElapsed time.Duration
		randomFailed, patternFailed   bool
	}
	rows := make([]pairRow, len(pairs))
	par.ForEach(r.cfg.Workers, len(pairs), func(i int) {
		p := pairs[i]
		var row pairRow
		if q, err := gr.Fork(par.DeriveSeed(r.cfg.Seed+31, i)).GenerateRandom(p[:]); err != nil {
			row.randomTrials = r.cfg.MaxTrials
			row.randomFailed = true
		} else {
			row.randomTrials = q.Trials
			row.randomElapsed = q.Elapsed
		}
		if q, err := gp.Fork(par.DeriveSeed(r.cfg.Seed+67, i)).GeneratePatternPair(p[0], p[1]); err != nil {
			row.patternTrials = r.cfg.MaxTrials
			row.patternFailed = true
		} else {
			row.patternTrials = q.Trials
			row.patternElapsed = q.Elapsed
		}
		rows[i] = row
	})
	res := &PairGenResult{N: n, Pairs: len(pairs)}
	for _, row := range rows {
		res.RandomTrials += row.randomTrials
		res.PatternTrials += row.patternTrials
		res.RandomElapsed += row.randomElapsed
		res.PatternElapsed += row.patternElapsed
		if row.randomFailed {
			res.RandomFailures++
		}
		if row.patternFailed {
			res.PatternFailed++
		}
	}
	return res, nil
}

// Fig9And10 runs the pair-generation sweep for the paper's two rule counts.
func (r *Runner) Fig9And10() ([]*PairGenResult, error) {
	ns := []int{15, 30}
	if r.cfg.Quick {
		ns = []int{6, 10}
	}
	var out []*PairGenResult
	for _, n := range ns {
		res, err := r.PairGeneration(n)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// PrintFig9 renders the trials comparison.
func PrintFig9(w io.Writer, results []*PairGenResult) {
	fmt.Fprintf(w, "Figure 9: total trials to generate a query per rule pair (log-scale in paper)\n")
	fmt.Fprintf(w, "%6s %7s %10s %10s %8s\n", "n", "pairs", "RANDOM", "PATTERN", "speedup")
	for _, res := range results {
		sp := float64(res.RandomTrials) / float64(max(res.PatternTrials, 1))
		fmt.Fprintf(w, "%6d %7d %10d %10d %7.1fx\n", res.N, res.Pairs, res.RandomTrials, res.PatternTrials, sp)
	}
	fmt.Fprintf(w, "(paper: n=15 1187 vs 383; n=30 >13000 vs <1000, ~13x)\n")
}

// PrintFig10 renders the time comparison.
func PrintFig10(w io.Writer, results []*PairGenResult) {
	fmt.Fprintf(w, "Figure 10: total time to generate a query per rule pair\n")
	fmt.Fprintf(w, "%6s %7s %12s %12s %8s\n", "n", "pairs", "RANDOM", "PATTERN", "speedup")
	for _, res := range results {
		sp := float64(res.RandomElapsed) / float64(max(res.PatternElapsed, 1))
		fmt.Fprintf(w, "%6d %7d %12s %12s %7.1fx\n", res.N, res.Pairs,
			res.RandomElapsed.Round(time.Millisecond), res.PatternElapsed.Round(time.Millisecond), sp)
	}
}

// ---------------------------------------------------------------------------
// Figures 11-13: test-suite compression cost.

// CompressionRow compares the three strategies at one sweep point.
type CompressionRow struct {
	N        int
	K        int
	Pairs    bool
	Baseline float64
	SMC      float64
	TopK     float64
}

// compressionPoint builds a suite and runs the three algorithms.
func (r *Runner) compressionPoint(n, k int, pairs bool, seed int64) (*CompressionRow, error) {
	ids := r.explorationIDs(n)
	var targets []suite.Target
	if pairs {
		targets = suite.PairTargets(ids)
	} else {
		targets = suite.SingletonTargets(ids)
	}
	g, err := suite.Generate(r.opt, targets, suite.GenConfig{
		K: k, Seed: seed, ExtraOps: 3, MaxTrials: r.cfg.MaxTrials,
		Workers: r.cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	base, err := g.Baseline()
	if err != nil {
		return nil, err
	}
	smc, err := g.SetMultiCover()
	if err != nil {
		return nil, err
	}
	topk, err := g.TopKIndependent()
	if err != nil {
		return nil, err
	}
	return &CompressionRow{
		N: n, K: k, Pairs: pairs,
		Baseline: base.TotalCost, SMC: smc.TotalCost, TopK: topk.TotalCost,
	}, nil
}

// Fig11 sweeps the number of singleton rules at k=10.
func (r *Runner) Fig11() ([]*CompressionRow, error) {
	ns := []int{5, 10, 15, 20, 25, 30}
	k := 10
	if r.cfg.Quick {
		ns = []int{4, 8, 12}
		k = 4
	}
	var out []*CompressionRow
	for _, n := range ns {
		row, err := r.compressionPoint(n, k, false, r.cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig12 sweeps the number of rules whose pairs are tested, at k=10.
func (r *Runner) Fig12() ([]*CompressionRow, error) {
	ns := []int{5, 10, 15}
	k := 10
	if r.cfg.Quick {
		ns = []int{4, 6}
		k = 3
	}
	var out []*CompressionRow
	for _, n := range ns {
		row, err := r.compressionPoint(n, k, true, r.cfg.Seed+100+int64(n))
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig13 varies the test-suite size k over rule pairs. The paper fixes n=15;
// the default here uses n=10 (45 pairs) so the k=20 point stays tractable on
// a laptop — the sweep variable and the SMC-degradation trend are identical.
func (r *Runner) Fig13() ([]*CompressionRow, error) {
	ks := []int{1, 2, 5, 10, 20}
	n := 10
	if r.cfg.Quick {
		ks = []int{1, 2, 4}
		n = 5
	}
	var out []*CompressionRow
	for _, k := range ks {
		row, err := r.compressionPoint(n, k, true, r.cfg.Seed+200+int64(k))
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintCompression renders a compression sweep.
func PrintCompression(w io.Writer, title string, rows []*CompressionRow, byK bool) {
	fmt.Fprintln(w, title)
	head := "n"
	if byK {
		head = "k"
	}
	fmt.Fprintf(w, "%6s %14s %14s %14s %10s %10s\n", head, "BASELINE", "SMC", "TOPK", "base/topk", "smc/topk")
	for _, r := range rows {
		x := r.N
		if byK {
			x = r.K
		}
		fmt.Fprintf(w, "%6d %14.0f %14.0f %14.0f %9.1fx %9.2fx\n",
			x, r.Baseline, r.SMC, r.TopK, r.Baseline/r.TopK, r.SMC/r.TopK)
	}
}

// ---------------------------------------------------------------------------
// Figure 14: optimizer calls saved by exploiting monotonicity.

// MonotonicityRow compares optimizer invocations for one sweep point.
type MonotonicityRow struct {
	N          int
	Pairs      int
	CallsFull  int
	CallsMono  int
	CostsEqual bool
}

// Fig14 measures, over rule-pair suites, the optimizer invocations TOPK makes
// with the §5.3.1 monotonicity pruning, and how many an exhaustive scan of the
// graph would have made: after TOPK it prices every edge TOPK left unread, on
// the same graph, and picks each target's k cheapest of them all.
func (r *Runner) Fig14() ([]*MonotonicityRow, error) {
	ns := []int{5, 10, 15}
	k := 10
	if r.cfg.Quick {
		ns = []int{4, 6}
		k = 3
	}
	var out []*MonotonicityRow
	for _, n := range ns {
		ids := r.explorationIDs(n)
		g, err := suite.Generate(r.opt, suite.PairTargets(ids), suite.GenConfig{
			K: k, Seed: r.cfg.Seed + 300 + int64(n), ExtraOps: 3, MaxTrials: r.cfg.MaxTrials,
			Workers: r.cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		mono, err := g.TopKIndependent()
		if err != nil {
			return nil, err
		}
		// What an exhaustive scan picks: each target's k cheapest edges by
		// (cost, query) — Adj is in query order — and their cost as a
		// Solution totals it, a shared query's node cost once.
		perTarget := make([][]suite.Assignment, len(g.Targets))
		par.ForEach(r.cfg.Workers, len(g.Targets), func(ti int) {
			edges := make([]suite.Assignment, len(g.Adj[ti]))
			for i, qi := range g.Adj[ti] {
				edges[i] = suite.Assignment{Query: qi, EdgeCost: g.EdgeCost(qi, g.Targets[ti])}
			}
			sort.SliceStable(edges, func(i, j int) bool { return edges[i].EdgeCost < edges[j].EdgeCost })
			perTarget[ti] = edges[:k]
		})
		full := 0.0
		used := make(map[int]bool)
		for _, edges := range perTarget {
			for _, e := range edges {
				if !used[e.Query] {
					used[e.Query] = true
					full += g.Queries[e.Query].Cost
				}
				full += e.EdgeCost
			}
		}
		diff := full - mono.TotalCost
		out = append(out, &MonotonicityRow{
			N: n, Pairs: len(g.Targets),
			CallsFull: g.OptimizerCalls(), CallsMono: mono.OptimizerCalls,
			CostsEqual: diff < 1e-6 && diff > -1e-6,
		})
	}
	return out, nil
}

// PrintFig14 renders the monotonicity comparison.
func PrintFig14(w io.Writer, rows []*MonotonicityRow) {
	fmt.Fprintln(w, "Figure 14: optimizer calls to build the rule-pair bipartite graph (TOPK)")
	fmt.Fprintf(w, "%6s %7s %10s %12s %9s %10s\n", "n", "pairs", "full", "monotonic", "saving", "same cost")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %7d %10d %12d %8.1fx %10v\n",
			r.N, r.Pairs, r.CallsFull, r.CallsMono,
			float64(r.CallsFull)/float64(max(r.CallsMono, 1)), r.CostsEqual)
	}
	fmt.Fprintln(w, "(paper: 6x-9x fewer calls, identical solution quality)")
}

// ---------------------------------------------------------------------------
// Figure 15: mutation score of the correctness oracle (extension beyond the
// paper's evaluation).

// Fig15 runs the rule-mutation fault-injection campaign: every shipped
// mutant replaces one rule with a subtly wrong variant, and the full
// pipeline (generate, compress, execute, compare) runs once per mutant. The
// resulting mutation score validates the oracle itself — an oracle that
// cannot catch seeded faults says nothing when it reports zero mismatches on
// the healthy rule set.
func (r *Runner) Fig15() (*mutate.Score, error) {
	return mutate.Run(r.opt.Catalog(), mutate.Config{
		Seed: r.cfg.Seed, MaxTrials: r.cfg.MaxTrials, Workers: r.cfg.Workers,
	})
}

// PrintFig15 renders the mutation-score table.
func PrintFig15(w io.Writer, s *mutate.Score) {
	fmt.Fprintln(w, "Figure 15: mutation score of the correctness oracle (injected rule faults)")
	s.Print(w, false)
	fmt.Fprintln(w, "(every shipped mutant must be caught by the uncompressed BASELINE suite)")
}
