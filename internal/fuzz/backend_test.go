package fuzz

import (
	"bytes"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/core/oracle"
	"qtrtest/internal/mutate"
	"qtrtest/internal/opt"
)

// TestBackendCampaignCatchesAllMutants is the cross-engine acceptance test:
// a blind fuzz campaign with the reference backend as a third oracle must
// still catch every shipped mutant at seeds 1 and 42 — the backend check may
// never mask the existing oracles — and the wrong-agg mutant must be caught
// at least once by the backend oracle itself (a KindBackend finding), since
// an executor-side aggregate fault replayed on both sides of the
// self-differential comparison is exactly what the independent engine
// exists to see.
func TestBackendCampaignCatchesAllMutants(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	sawBackendKind := false
	for _, seed := range []int64{1, 42} {
		for _, m := range mutate.Mutants() {
			rep, err := Run(Config{
				Seed: seed, N: 300, Workers: 8, Catalog: cat, DB: "tpch",
				Registry: m.Registry(), Backend: "ref",
				StopOnFinding: true,
			})
			if err != nil {
				t.Fatalf("seed=%d mutant=%s: %v", seed, m.Kind, err)
			}
			if len(rep.Findings) == 0 {
				t.Errorf("seed=%d mutant=%s: backend campaign missed the mutant (0 findings in %d queries)",
					seed, m.Kind, rep.N)
				continue
			}
			if rep.BackendChecks == 0 {
				t.Errorf("seed=%d mutant=%s: campaign ran no backend checks", seed, m.Kind)
			}
			for _, f := range rep.Findings {
				if f.Kind == KindBackend {
					if m.Kind == "wrong-agg" {
						sawBackendKind = true
					}
					if !backendFindingReplays(t, cat, m, f) {
						t.Errorf("seed=%d mutant=%s: backend finding does not replay: sql=%s",
							seed, m.Kind, f.SQL)
					}
				}
			}
		}
	}
	if !sawBackendKind {
		t.Error("wrong-agg was never caught by the backend oracle itself (no KindBackend finding at either seed)")
	}
}

// backendFindingReplays re-derives a KindBackend finding from its SQL alone:
// bind, optimize under the mutant registry, execute the base plan, and
// cross-check it against the reference backend. The finding is genuine iff
// the cross-check still reports a divergence.
func backendFindingReplays(t *testing.T, cat *catalog.Catalog, m mutate.Mutant, f Finding) bool {
	t.Helper()
	o := opt.New(m.Registry(), cat)
	bound, err := bind.BindSQL(f.SQL, cat)
	if err != nil {
		t.Logf("finding SQL does not bind: %v", err)
		return false
	}
	res, err := o.Optimize(bound.Tree, bound.MD, opt.Options{})
	if err != nil {
		t.Logf("finding SQL does not plan: %v", err)
		return false
	}
	rn, err := oracle.New(oracle.Options{Backend: "ref", MaxWork: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	base, err := rn.Base(cat, oracle.Prepare(res.Plan))
	if err != nil {
		return false
	}
	// A backend error where the base ran is a Mismatch too: still a divergence.
	out, err := rn.Cross(&base, oracle.PrepareCross(bound.Tree))
	return err == nil && out.Verdict == oracle.Mismatch
}

// TestBackendCampaignPristineAndDeterministic: with the pristine registry
// the backend oracle must stay silent — zero cross-engine disagreements on
// the random, TPC-H and star catalogs at both seeds — and the report must be
// byte-identical at 1 and 8 workers. -short keeps the random catalog, so a
// short run still holds one cross-engine campaign to the contract.
func TestBackendCampaignPristineAndDeterministic(t *testing.T) {
	type db struct {
		name string
		cat  *catalog.Catalog
	}
	for _, seed := range []int64{1, 42} {
		cats := []db{{"rand", nil}} // nil catalog: the fuzzer derives one from the seed
		if !testing.Short() {
			cats = append(cats,
				db{"tpch", catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.25, Seed: seed})},
				db{"star", catalog.LoadStar(catalog.StarConfig{ScaleRows: 0.25, Seed: seed})},
			)
		}
		for _, c := range cats {
			cfg := Config{Seed: seed, N: 64, Workers: 1, Backend: "ref", Catalog: c.cat}
			if c.cat != nil {
				cfg.DB = c.name
			}
			one, err := Run(cfg)
			if err != nil {
				t.Fatalf("seed=%d db=%s workers=1: %v", seed, c.name, err)
			}
			cfg.Workers = 8
			eight, err := Run(cfg)
			if err != nil {
				t.Fatalf("seed=%d db=%s workers=8: %v", seed, c.name, err)
			}
			if len(one.Findings) != 0 {
				f := one.Findings[0]
				t.Errorf("seed=%d db=%s: pristine campaign reported %d finding(s); first: %s %s",
					seed, c.name, len(one.Findings), f.Kind, f.Detail)
			}
			if one.BackendChecks == 0 {
				t.Errorf("seed=%d db=%s: no backend checks ran; the pristine sweep is vacuous", seed, c.name)
			}
			aj, _ := one.JSON()
			bj, _ := eight.JSON()
			if string(aj) != string(bj) {
				t.Errorf("seed=%d db=%s: report differs between 1 and 8 workers", seed, c.name)
			}
		}
	}
}

// TestBackendOffReportUnchanged pins the wire format: a campaign without a
// backend must emit a report with no backend fields at all, byte-identical
// to what pre-backend builds produced.
func TestBackendOffReportUnchanged(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.1, Seed: 7})
	rep, err := Run(Config{Seed: 7, N: 16, Workers: 4, Catalog: cat, DB: "tpch"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{`"backend"`, `"backend_checks"`} {
		if bytes.Contains(data, []byte(banned)) {
			t.Errorf("backend-off report contains %s:\n%s", banned, data)
		}
	}
}
