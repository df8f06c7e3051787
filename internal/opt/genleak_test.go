package opt_test

import (
	"errors"
	"fmt"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/core/qgen"
	"qtrtest/internal/opt"
	"qtrtest/internal/par"
	"qtrtest/internal/rules"
)

// TestGenerationReleasesEveryScratch: a generation trial holds a scratch from
// its exploration until the generator releases or keeps it, and a pair sweep
// holds its best hit, paused, across later trials. Counting the scratches
// every optimization takes (the work counter) and every one that goes back to
// the pool (the pool hook), none may be out once a generator call returns:
// when smaller hits displace held ones (the suite_pairs sweep, where 83 of the
// 195 hits are displaced), when the trials run out with a hit held or with
// none (ErrExhausted, also for RELEVANT trials whose hits each cost a Finish
// and a Without), and when a trial fails mid-sweep with a hit held (a registry
// with no implementation of UNION ALL, and a target whose implementation rule
// makes every trial finish: a padding UNION ALL has no plan).
func TestGenerationReleasesEveryScratch(t *testing.T) {
	var live, peak int
	defer opt.CountWork(func(explored bool, _ int) {
		if explored {
			live++
			peak = max(peak, live)
		}
	})()
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1, Seed: 42})
	newGen := func(reg *rules.Registry, cfg qgen.Config) *qgen.Generator {
		o := opt.New(reg, cat)
		opt.OnPool(o, func() { live-- })
		g, err := qgen.New(o, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// call runs one generator call and reports the most scratches it had out
	// at once; none may be out when it returns.
	call := func(name string, generate func() error) (int, error) {
		t.Helper()
		peak = 0
		err := generate()
		if live != 0 {
			t.Fatalf("%s: %d scratches still out after the call (error %v)", name, live, err)
		}
		return peak, err
	}
	var ids []rules.ID
	for _, r := range rules.ExplorationRules()[:8] {
		ids = append(ids, r.ID())
	}

	// Displacement: the suite_pairs generation set.
	base := newGen(rules.DefaultRegistry(), qgen.Config{Seed: 42, ExtraOps: 3})
	held := 0
	for target, i := 0, 0; i < len(ids); i++ {
		for _, b := range ids[i+1:] {
			gen := base.Fork(par.DeriveSeed(42, target))
			target++
			for range 4 {
				p, err := call(fmt.Sprintf("pair {%d,%d}", ids[i], b), func() error {
					_, err := gen.GeneratePatternPair(ids[i], b)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				if p >= 2 {
					held++
				}
			}
		}
	}
	if held == 0 {
		t.Errorf("no pair call explored a trial while it held a hit")
	}

	// The trials run out: with a hit held, and with none.
	short := newGen(rules.DefaultRegistry(), qgen.Config{Seed: 42, MaxTrials: 2})
	if _, err := call("pair {1,17}, 2 trials", func() error {
		_, err := short.GeneratePatternPair(1, 17)
		return err
	}); err != nil {
		t.Errorf("pair {1,17} in 2 trials: %v", err)
	}
	exhausted := 0
	few := newGen(rules.DefaultRegistry(), qgen.Config{Seed: 42, MaxTrials: 24, ExtraOps: 1})
	for _, c := range []struct {
		name string
		gen  func() error
	}{
		{"RELEVANT(1)", func() error { _, err := few.GenerateRelevant(1); return err }},
		{"RANDOM{2,21}", func() error { _, err := few.GenerateRandom([]rules.ID{2, 21}); return err }},
		{"RANDOM{2,5}", func() error { _, err := few.GenerateRandom([]rules.ID{2, 5}); return err }},
		{"INTERACTION{23,1}", func() error { _, err := few.GenerateInteractionPair(23, 1); return err }},
		{"INTERACTION{2,21}", func() error { _, err := few.GenerateInteractionPair(2, 21); return err }},
	} {
		if _, err := call(c.name, c.gen); errors.Is(err, qgen.ErrExhausted) {
			exhausted++
		} else if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	t.Logf("%d of 5 calls ran out of trials", exhausted)
	if exhausted < 3 {
		t.Errorf("only %d calls ran out of trials", exhausted)
	}

	// An error mid-sweep with a hit held.
	var noConcat []rules.Rule
	for _, r := range rules.DefaultRegistry().All() {
		if r.ID() != 115 {
			noConcat = append(noConcat, r)
		}
	}
	failed := 0
	for seed := int64(1); seed <= 64 && failed == 0; seed++ {
		gen := newGen(rules.NewRegistry(noConcat...), qgen.Config{Seed: seed, ExtraOps: 3})
		p, err := call(fmt.Sprintf("seed %d pair {5,104}", seed), func() error {
			_, err := gen.GeneratePatternPair(5, 104)
			return err
		})
		if err != nil && !errors.Is(err, opt.ErrNoPlan) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err != nil && p >= 2 {
			failed++
		}
	}
	if failed == 0 {
		t.Errorf("no sweep failed while it held a hit")
	}
}
