package mutate

import (
	"bytes"
	"testing"

	"qtrtest/internal/catalog"
)

func testTPCH() *catalog.Catalog {
	// A scaled-down instance keeps the full campaign fast; the catches below
	// were also verified at ScaleRows 1.0.
	return catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.1, Seed: 1})
}

// TestEveryMutantCaughtByFullSuite is the oracle-validation criterion: for
// every shipped mutant, the uncompressed (BASELINE) suite over the mutated
// rule's own target must report a mismatch — and here the compressed suites
// do too.
func TestEveryMutantCaughtByFullSuite(t *testing.T) {
	cat := testTPCH()
	score, err := Run(cat, Config{Seed: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(score.Results) != len(Mutants()) {
		t.Fatalf("campaign ran %d mutants, want %d", len(score.Results), len(Mutants()))
	}
	for i := range score.Results {
		r := &score.Results[i]
		t.Run(string(r.Mutant.Kind), func(t *testing.T) {
			for _, a := range r.Algos {
				if !a.Caught {
					t.Errorf("%s suite missed the injected fault", a.Algo)
				} else if !a.OnTarget {
					t.Errorf("%s caught the fault only via another rule's target", a.Algo)
				}
			}
			if r.SQL == "" || r.BasePlan == "" || r.EdgePlan == "" {
				t.Error("caught mutant must carry plan-diff evidence (SQL, BasePlan, EdgePlan)")
			}
			if r.BasePlan == r.EdgePlan {
				t.Error("plan diff evidence shows identical plans")
			}
		})
	}
	if got := score.CaughtBy("BASELINE"); got != len(score.Results) {
		t.Errorf("mutation score BASELINE %d/%d, want full marks", got, len(score.Results))
	}
}

// TestCampaignDeterministicAcrossWorkers: the rendered report must be
// byte-identical for any worker count.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	cat := testTPCH()
	var want string
	for _, workers := range []int{1, 8} {
		score, err := Run(cat, Config{Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		score.Print(&buf, true)
		if want == "" {
			want = buf.String()
		} else if buf.String() != want {
			t.Fatalf("report differs between workers=1 and workers=%d:\n%s\n---\n%s",
				workers, want, buf.String())
		}
	}
}

// TestMutationSmoke is the CI smoke job: three cheap mutants on a small
// database, all three caught. It exercises the ordered oracle (flip-sort-dir
// is invisible to a multiset comparison), the LIMIT handling and the filter
// path in under a second.
func TestMutationSmoke(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.1, Seed: 1})
	ms, err := ByKind(KindDropFilterConjunct, KindFlipSortDir, KindLimitOffByOne)
	if err != nil {
		t.Fatal(err)
	}
	score, err := Run(cat, Config{Seed: 1, Workers: 4, Mutants: ms})
	if err != nil {
		t.Fatal(err)
	}
	if got := score.CaughtBy("BASELINE"); got != 3 {
		var buf bytes.Buffer
		score.Print(&buf, false)
		t.Fatalf("smoke mutation score %d/3:\n%s", got, buf.String())
	}
}

// TestBackendCatchesFlipSortDir: with the reference engine as the backend, the
// flip-sort-dir mutant's wrong sort order disagrees with the reference replay
// in every algorithm's suite, and the mutation score is the one the campaign
// gives without a backend.
func TestBackendCatchesFlipSortDir(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.05, Seed: 42})
	ms, err := ByKind(KindFlipSortDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 2, Seed: 42, Workers: 4, Mutants: ms}
	off, err := Run(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = "ref"
	on, err := Run(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range on.Results[0].Algos {
		if a.BackendChecks == 0 || a.BackendDisagreements == 0 {
			t.Errorf("%s: %d of %d backend cross-checks disagreed, want at least one",
				a.Algo, a.BackendDisagreements, a.BackendChecks)
		}
	}
	for _, algo := range AlgoNames {
		if got, want := on.CaughtBy(algo), off.CaughtBy(algo); got != want {
			t.Errorf("%s: mutation score %d with the backend, %d without", algo, got, want)
		}
	}
}
