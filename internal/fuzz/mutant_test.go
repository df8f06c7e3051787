package fuzz

import (
	"strings"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/core/oracle"
	"qtrtest/internal/exec"
	"qtrtest/internal/mutate"
	"qtrtest/internal/opt"
	"qtrtest/internal/physical"
	"qtrtest/internal/rules"
)

// TestCampaignCatchesAllMutants is the headline acceptance test: a fuzz
// campaign at seeds 1 and 42 must catch every shipped mutant — without being
// told which rule was mutated — and ship a shrunk reproducer for it.
// StopOnFinding keeps the runtime bounded without giving any mutant special
// treatment.
func TestCampaignCatchesAllMutants(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	for _, seed := range []int64{1, 42} {
		for _, m := range mutate.Mutants() {
			rep, err := Run(Config{
				Seed: seed, N: 300, Workers: 8, Catalog: cat, DB: "tpch",
				Registry:      m.Registry(),
				StopOnFinding: true,
			})
			if err != nil {
				t.Fatalf("seed=%d mutant=%s: %v", seed, m.Kind, err)
			}
			if len(rep.Findings) == 0 {
				t.Errorf("seed=%d mutant=%s: campaign missed the mutant (0 findings in %d queries)",
					seed, m.Kind, rep.N)
				continue
			}
			f := rep.Findings[0]
			if f.ShrunkSQL == "" {
				t.Errorf("seed=%d mutant=%s: first finding has no shrunk reproducer (kind=%s)",
					seed, m.Kind, f.Kind)
				continue
			}
			if f.Repro == "" {
				t.Errorf("seed=%d mutant=%s: finding has no repro line", seed, m.Kind)
			}
			// The shrunk reproducer must still trip the same oracle when
			// replayed from its SQL alone.
			if !shrunkStillTrips(t, cat, m.Registry(), f) {
				t.Errorf("seed=%d mutant=%s: shrunk reproducer no longer trips the oracle: kind=%s sql=%s",
					seed, m.Kind, f.Kind, f.ShrunkSQL)
			}
		}
	}
}

// shrunkStillTrips replays a finding's shrunk SQL through the same pipeline
// and oracle that produced the original finding under registry reg. The
// rewrite lookup spans the full catalog (tree-level plus EET, and the
// test-only failingFilter) so findings of every campaign replay; the
// finding's own Seed replays any seed-dependent site choice. An
// exec-error finding replays the plan it was raised on: Plan(q,¬Rule) for a
// rule, the named rewrite's plan for a rewrite, else the base plan.
func shrunkStillTrips(t *testing.T, cat *catalog.Catalog, reg *rules.Registry, f Finding) bool {
	t.Helper()
	o := opt.New(reg, cat)
	bound, err := bind.BindSQL(f.ShrunkSQL, cat)
	if err != nil {
		t.Logf("shrunk SQL does not bind: %v", err)
		return false
	}
	res, err := o.Optimize(bound.Tree, bound.MD, opt.Options{})
	if err != nil {
		t.Logf("shrunk SQL does not plan: %v", err)
		return false
	}
	rn, err := oracle.New(oracle.Options{MaxWork: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	// rewritten returns the plan of the finding's rewrite of the query, or
	// nil when the rewrite no longer applies or plans.
	rewritten := func() *physical.Expr {
		for _, rw := range append(rewritesFor(Config{EET: true}), failingFilter) {
			if rw.Name != f.Rewrite {
				continue
			}
			alt := rw.Apply(bound.Tree, bound.MD, f.Seed)
			if alt == nil {
				return nil
			}
			c := &campaign{cfg: Config{Catalog: cat}, opt: o}
			aq, _, err := c.plan(alt, bound.MD)
			if err != nil {
				return nil
			}
			return aq.res.Plan
		}
		return nil
	}
	switch f.Kind {
	case KindDifferential:
		base, err := rn.Base(cat, oracle.Prepare(res.Plan))
		if err != nil {
			return false
		}
		altRes, err := o.Optimize(bound.Tree, bound.MD, opt.Options{Disabled: rules.NewSet(rules.ID(f.Rule))})
		if err != nil {
			return false
		}
		out, err := rn.Edge(&base, oracle.Prepare(altRes.Plan))
		return err == nil && out.Verdict == oracle.Mismatch
	case KindMetamorphic:
		base, err := rn.Base(cat, oracle.Prepare(res.Plan))
		if err != nil {
			return false
		}
		altPlan := rewritten()
		if altPlan == nil {
			return false
		}
		out, err := rn.Edge(&base, oracle.Prepare(altPlan))
		return err == nil && out.Verdict == oracle.Mismatch
	case KindExecError:
		plan := res.Plan
		switch {
		case f.Rule != 0:
			altRes, err := o.Optimize(bound.Tree, bound.MD, opt.Options{Disabled: rules.NewSet(rules.ID(f.Rule))})
			if err != nil {
				return false
			}
			plan = altRes.Plan
		case f.Rewrite != "":
			if plan = rewritten(); plan == nil {
				return false
			}
		}
		_, err := exec.Run(plan, cat)
		return err != nil
	}
	return false
}

// TestMutantCampaignDeterministic: the same mutant campaign run twice gives
// the same report, shrunk reproducers included.
func TestMutantCampaignDeterministic(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.5, Seed: 1})
	ms, err := mutate.ByKind(mutate.KindDropFilterConjunct)
	if err != nil || len(ms) == 0 {
		t.Fatalf("drop-filter-conjunct mutant not registered: %v", err)
	}
	cfg := Config{
		Seed: 5, N: 96, Workers: 4, Catalog: cat, DB: "tpch",
		Registry:      ms[0].Registry(),
		StopOnFinding: true,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := a.JSON()
	bj, _ := b.JSON()
	if string(aj) != string(bj) {
		t.Errorf("repeated campaign differs:\n--- first ---\n%s\n--- second ---\n%s", aj, bj)
	}
	if len(a.Findings) == 0 {
		t.Error("campaign caught nothing; determinism check is vacuous")
	}
}

// TestReportNamesRegistryMutant: a campaign on a mutant's registry names the
// mutant in its report and in every repro line, read from the registry: no
// label can disagree with the rules that ran.
func TestReportNamesRegistryMutant(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.1, Seed: 1})
	for _, m := range mutate.Mutants() {
		rep, err := Run(Config{
			Seed: 42, N: 32, Workers: 4, Catalog: cat, DB: "tpch",
			Registry: m.Registry(), StopOnFinding: true,
		})
		if err != nil {
			t.Fatalf("mutant=%s: %v", m.Kind, err)
		}
		if rep.Mutant != string(m.Kind) {
			t.Errorf("mutant=%s: report names mutant %q", m.Kind, rep.Mutant)
		}
		for _, f := range rep.Findings {
			if !strings.HasSuffix(f.Repro, " -mutant "+string(m.Kind)+"  # any -workers") {
				t.Errorf("mutant=%s: repro line %q does not name it", m.Kind, f.Repro)
			}
		}
	}
}
