package opt_test

import (
	"sort"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/core/qgen"
	"qtrtest/internal/opt"
	"qtrtest/internal/rules"
)

// TestFirstFirePrefix is the counter ROADMAP item 5(c) asked for before
// anyone builds fork-at-first-fire re-optimization. Plan(q,¬R) repeats
// Plan(q) until a disabled rule's pattern first binds; a fork there would
// save the expressions the memo holds at that point. Over the edge calls of
// the suite_pairs campaign's shape — PATTERN pair queries for the first 8
// exploration rules on TPC-H scale 1, each re-optimized without every target
// pair it covers — that prefix is a few per cent of what the calls build
// (2.7 % over the benchmark's 2 133 calls), so the fork is not worth its
// snapshot: the test logs the distribution and fails if the share ever
// reaches a tenth, which is when the question deserves reopening.
func TestFirstFirePrefix(t *testing.T) {
	reg := rules.DefaultRegistry()
	o := opt.New(reg, catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1, Seed: 42}))
	var ids []rules.ID
	for _, r := range reg.All() {
		if r.Kind() == rules.KindExploration && len(ids) < 8 {
			ids = append(ids, r.ID())
		}
	}
	gen, err := qgen.New(o, qgen.Config{Seed: 42, ExtraOps: 3})
	if err != nil {
		t.Fatal(err)
	}
	var queries []*qgen.Query
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			q, err := gen.GeneratePatternPair(a, b)
			if err != nil {
				t.Fatalf("pair {%d,%d}: %v", a, b, err)
			}
			queries = append(queries, q)
		}
	}
	var sumPrefix, sumFinal, calls int
	var shares []float64
	for _, q := range queries {
		for i, a := range ids {
			for _, b := range ids[i+1:] {
				if !q.RuleSet.Contains(a) || !q.RuleSet.Contains(b) {
					continue // no edge: the suite costs Plan(q,¬R) only for targets q covers
				}
				prefix, fires := 0, 0
				opts := opt.Options{Disabled: rules.NewSet(a, b)}.WithFirstFire(func(_ rules.ID, exprs int) {
					prefix = exprs
					fires++
				})
				res, err := o.Optimize(q.Tree, q.MD, opts)
				if err != nil {
					continue // unplannable without the pair: the suite prices it at +Inf
				}
				if fires != 1 {
					t.Fatalf("¬{%d,%d}: %d first fires on a query that exercises both rules", a, b, fires)
				}
				final := res.Memo.NumExprs()
				calls++
				sumPrefix += prefix
				sumFinal += final
				shares = append(shares, float64(prefix)/float64(final))
			}
		}
	}
	if calls == 0 {
		t.Fatal("no edge calls")
	}
	sort.Float64s(shares)
	quantile := func(p float64) float64 { return shares[int(p*float64(len(shares)-1))] }
	total := float64(sumPrefix) / float64(sumFinal)
	t.Logf("%d queries, %d edge calls: %d of %d expressions precede the first fire (%.1f %%); per call median %.1f %%, q75 %.1f %%, q90 %.1f %%",
		len(queries), calls, sumPrefix, sumFinal, 100*total, 100*quantile(0.5), 100*quantile(0.75), 100*quantile(0.9))
	if total >= 0.10 {
		t.Errorf("the shared prefix is %.1f %% of what the edge calls explore; ROADMAP 5(c) struck the fork at under 10 %%", 100*total)
	}
}
