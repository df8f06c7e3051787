package fuzz

import (
	"bytes"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/mutate"
)

// TestEETCampaignCatchesAllMutants: with the EET rewrites enabled the
// campaign must still catch every shipped mutant blind at both acceptance
// seeds, and the shrunk reproducer must replay — including findings whose
// tripping rewrite is an EET one, whose site choice depends on the seed.
func TestEETCampaignCatchesAllMutants(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	for _, seed := range []int64{1, 42} {
		for _, m := range mutate.Mutants() {
			rep, err := Run(Config{
				Seed: seed, N: 300, Workers: 8, Catalog: cat, DB: "tpch",
				Registry: m.Registry(), EET: true,
				StopOnFinding: true,
			})
			if err != nil {
				t.Fatalf("seed=%d mutant=%s: %v", seed, m.Kind, err)
			}
			if len(rep.Findings) == 0 {
				t.Errorf("seed=%d mutant=%s: EET campaign missed the mutant (0 findings in %d queries)",
					seed, m.Kind, rep.N)
				continue
			}
			f := rep.Findings[0]
			if f.ShrunkSQL == "" {
				t.Errorf("seed=%d mutant=%s: first finding has no shrunk reproducer (kind=%s)",
					seed, m.Kind, f.Kind)
				continue
			}
			if !shrunkStillTrips(t, cat, m.Registry(), f) {
				t.Errorf("seed=%d mutant=%s: shrunk reproducer no longer trips the oracle: kind=%s rewrite=%q sql=%s",
					seed, m.Kind, f.Kind, f.Rewrite, f.ShrunkSQL)
			}
		}
	}
}

// TestEETPristineNoFindings: EET rewrites are exact equivalences, so under
// the unmutated registry they must produce zero findings — any finding is
// an unsound catalog entry or an engine divergence.
func TestEETPristineNoFindings(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	for _, seed := range []int64{1, 42} {
		rep, err := Run(Config{Seed: seed, N: 200, Workers: 8, Catalog: cat, DB: "tpch", EET: true})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if len(rep.Findings) != 0 {
			f := rep.Findings[0]
			t.Errorf("seed=%d: pristine EET campaign reported %d findings; first: kind=%s rewrite=%q detail=%s sql=%s",
				seed, len(rep.Findings), f.Kind, f.Rewrite, f.Detail, f.SQL)
		}
		if rep.MetamorphicChecks <= 0 {
			t.Errorf("seed=%d: no metamorphic checks ran; EET flag had no effect", seed)
		}
	}
}

// TestEETDeterminismAcrossWorkers: the per-seed EET site selection must not
// depend on scheduling — byte-identical reports at any worker count.
func TestEETDeterminismAcrossWorkers(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.1, Seed: 1})
	var reports [][]byte
	for _, workers := range []int{1, 8} {
		rep, err := Run(Config{Seed: 7, N: 96, Workers: workers, Catalog: cat, DB: "tpch", EET: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatalf("workers=%d: JSON: %v", workers, err)
		}
		reports = append(reports, data)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("EET reports differ between -workers 1 and 8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			reports[0], reports[1])
	}
}
