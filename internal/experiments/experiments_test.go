package experiments

import (
	"strings"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/opt"
	"qtrtest/internal/rules"
)

// tpchOptimizer is the optimizer qtrtest experiments runs the figures on at
// its default -scale and -seed.
func tpchOptimizer() *opt.Optimizer {
	return opt.New(rules.DefaultRegistry(), catalog.LoadTPCH(catalog.DefaultTPCHConfig()))
}

// quickRunner keeps experiment tests fast: small rule counts and suites.
func quickRunner() *Runner {
	return NewRunner(tpchOptimizer(), Config{Seed: 42, Quick: true, MaxTrials: 128})
}

// TestFig8Shape asserts the paper's headline result: PATTERN needs far fewer
// trials than RANDOM, and never fails.
func TestFig8Shape(t *testing.T) {
	r := quickRunner()
	res, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	random, pattern := res.Totals()
	if pattern >= random {
		t.Errorf("PATTERN (%d) should beat RANDOM (%d)", pattern, random)
	}
	for _, row := range res.Rows {
		if row.PatternFailed {
			t.Errorf("%s: PATTERN failed", row.Label)
		}
		if row.PatternTrials > 32 {
			t.Errorf("%s: PATTERN took %d trials", row.Label, row.PatternTrials)
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "TOTAL") {
		t.Error("Print output missing totals")
	}
}

// TestFig9Shape: the PATTERN advantage grows for rule pairs.
func TestFig9Shape(t *testing.T) {
	r := NewRunner(tpchOptimizer(), Config{Seed: 42, MaxTrials: 64})
	res, err := r.PairGeneration(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 10 {
		t.Fatalf("pairs = %d", res.Pairs)
	}
	if res.PatternTrials >= res.RandomTrials {
		t.Errorf("PATTERN pairs (%d) should beat RANDOM (%d)", res.PatternTrials, res.RandomTrials)
	}
	if res.PatternFailed > 0 {
		t.Errorf("PATTERN failed on %d pairs", res.PatternFailed)
	}
}

// TestFig11Shape: compression beats BASELINE for singleton rules.
func TestFig11Shape(t *testing.T) {
	r := quickRunner()
	rows, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.TopK >= row.Baseline {
			t.Errorf("n=%d: TOPK (%f) should beat BASELINE (%f)", row.N, row.TopK, row.Baseline)
		}
		if row.SMC >= row.Baseline {
			t.Errorf("n=%d: SMC (%f) should beat BASELINE (%f) for singletons", row.N, row.SMC, row.Baseline)
		}
	}
}

// TestFig14Shape: monotonicity saves optimizer calls at identical quality.
func TestFig14Shape(t *testing.T) {
	r := quickRunner()
	rows, err := r.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if !row.CostsEqual {
			t.Errorf("n=%d: monotonic TOPK changed the solution cost", row.N)
		}
		if row.CallsMono >= row.CallsFull {
			t.Errorf("n=%d: no optimizer calls saved (%d vs %d)", row.N, row.CallsMono, row.CallsFull)
		}
	}
}
