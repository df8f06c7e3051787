package fuzz

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/mutate"
	"qtrtest/internal/rules"
	"qtrtest/internal/scalar"
)

// shrinkGoldens pins the SHA-256 of Report.JSON() for every shipped mutant
// under each oracle mix, on TPC-H at seed 42 with StopOnFinding. The reports
// carry the shrunk reproducers, so any change to what the shrinker keeps —
// its keep predicate, its budget accounting, the candidate order — moves a
// hash.
var shrinkGoldens = map[string]string{
	"swap-join-type/plain":       "8e6f233fa1809e4fee81b967674a577a27366584d9e7906572b7d1832b3645c3",
	"swap-join-type/eet":         "a245854992c99960ad4e08e80efb9d38610d7f85b78f92d3bce366d682d4141b",
	"swap-join-type/ref":         "6c75b91d4c9572ea34aa5f4be5cede2aee4917600882193592bd6ad3fdff4c14",
	"dup-union-branch/plain":     "55c1e6f7823f4440362f3d6e86ec20384cdf1ef05be1fc5c5672a71a16191ccf",
	"dup-union-branch/eet":       "60bf2a2f607923e01ee220362ebd38503101b8a5e0a374bbdaaf524098edd61f",
	"dup-union-branch/ref":       "e185c4f6992861d903fa73316ba6e938f655c7b7d4f6fe0783621c7ad0ba1241",
	"drop-filter-conjunct/plain": "f599d0f9850487dcff8203dc0cd0cc8d2efc06d974de4953e2618ee1c00b65e4",
	"drop-filter-conjunct/eet":   "247f75286f10557989ad4194532e164a815d13bd152972d3363f9fdeca0a6e12",
	"drop-filter-conjunct/ref":   "d31836e172e03ed3aab105d40703200f27feafda1d1567bc19f7ffda2bdf125d",
	"drop-join-conjunct/plain":   "8abb7d1ca73f4f08e465f53b33dcc658ae3e5673239607590668bd14b789d277",
	"drop-join-conjunct/eet":     "eb510fc8a89c7bc64c96169843e803b9c34bb9f3d17c34276500bb5edde9cc09",
	"drop-join-conjunct/ref":     "04dce6434b855d127e957f8b95b02ad369eec7588e368e92275de67fad6eb7c9",
	"flip-sort-dir/plain":        "16978acaf352d071cf67982e7e74c0f1ec8f5a7cdbd826197d70d7807a96be10",
	"flip-sort-dir/eet":          "54139cf5d9cfacbd8616b7b22ab87412828fe7eb8e51a576c54f5f1d5d3299b6",
	"flip-sort-dir/ref":          "1a4fc7efa6e9015038f8f9f2b24cacff1fdec70eba8e7328f58053ff86e11060",
	"limit-off-by-one/plain":     "48054662b21cc57f021729e92e7b84f3b3f28a5a3f7b38fb12caf7d630e1c6e3",
	"limit-off-by-one/eet":       "d9fb1a9dfc476bb50bfc3ca85fe1e51d299ef7e5ff1838eda0763b0c848c84df",
	"limit-off-by-one/ref":       "03866b776c8a3f9cc86a0c6a0402634b8566f4440ccec455eb0f5c0c459bae02",
	"wrong-agg/plain":            "195eb0c9a8c3f6da71d56788dda7f1c4f3a2f289791bfb28e148a981f8c7012a",
	"wrong-agg/eet":              "29cfab3ad341fa0da3bbc7e5d3d533fb3bae154bd2f2642cea102cb23734fb8a",
	"wrong-agg/ref":              "a1c74c04dc763a32f4244177c74755254e12494fbd80c8c821659ced69a67ddf",
}

// TestShrinkGoldens replays the mutant campaigns and compares each report's
// hash with its pin. It also holds every report to the shrink quota: none of
// the findings the shrinker is given may come back unshrunk.
func TestShrinkGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("21 mutant campaigns")
	}
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	modes := []struct {
		name string
		set  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"eet", func(c *Config) { c.EET = true }},
		{"ref", func(c *Config) { c.Backend = "ref" }},
	}
	for _, m := range mutate.Mutants() {
		for _, mode := range modes {
			cfg := Config{
				Seed: 42, N: 300, Workers: 8, Catalog: cat, DB: "tpch",
				Registry: m.Registry(), StopOnFinding: true,
			}
			mode.set(&cfg)
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Kind, mode.name, err)
			}
			data, err := rep.JSON()
			if err != nil {
				t.Fatalf("%s/%s: JSON: %v", m.Kind, mode.name, err)
			}
			key := string(m.Kind) + "/" + mode.name
			got := fmt.Sprintf("%x", sha256.Sum256(data))
			if want := shrinkGoldens[key]; got != want {
				t.Errorf("%s: report hash %s, pinned %s", key, got, want)
			}
			checkShrunkQuota(t, key, rep)
		}
	}
}

// checkShrunkQuota asserts that every finding within the shrink quota, other
// than a rewrite error (kept whole on purpose), carries a shrunk reproducer:
// an unshrunk one there means the shrinker's oracle disagreed with the
// campaign's.
func checkShrunkQuota(t *testing.T, label string, rep *Report) {
	t.Helper()
	for i, f := range rep.Findings {
		if i == maxShrunk {
			break
		}
		if f.Kind != KindRewriteError && f.ShrunkSQL == "" {
			t.Errorf("%s: finding %d (query %d, kind %s, rule %d, rewrite %q) was not shrunk",
				label, i, f.Query, f.Kind, f.Rule, f.Rewrite)
		}
	}
}

// failingFilter is a test-only rewrite that is no equivalence: it filters the
// query on <first VARCHAR output column> + 1 > 0, which binds but fails in
// scalar evaluation, so the rewrite's plan raises an execution error wherever
// the filter meets a row.
var failingFilter = Rewrite{
	Name: "failing-filter",
	Apply: func(tree *logical.Expr, md *logical.Metadata, _ int64) *logical.Expr {
		for _, col := range tree.OutputCols() {
			if md.Column(col).Type != datum.TypeString {
				continue
			}
			pred := &scalar.Cmp{
				Op: scalar.CmpGT,
				L:  &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: col}, R: &scalar.Const{D: datum.NewInt(1)}},
				R:  &scalar.Const{D: datum.NewInt(0)},
			}
			return &logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{tree.Clone()}, Filter: pred}
		}
		return nil
	},
}

// TestRewriteExecErrorsShrink: an execution error raised on a rewrite's plan
// is filed under the rewrite, not a rule, and must be shrunk by replaying
// that rewrite — re-checking the base plan, which ran fine, would leave
// every such finding unshrunk. Each shrunk reproducer must still fail on the
// rewrite's plan.
func TestRewriteExecErrorsShrink(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	c, err := newCampaign(Config{Seed: 42, N: 64, Workers: 4, Catalog: cat, DB: "tpch"})
	if err != nil {
		t.Fatal(err)
	}
	c.rewrites = []Rewrite{failingFilter}
	rep := c.run()
	n := 0
	for i, f := range rep.Findings {
		if f.Kind != KindExecError || f.Rewrite == "" || i >= maxShrunk {
			continue
		}
		n++
		if f.ShrunkSQL != "" && !shrunkStillTrips(t, cat, rules.DefaultRegistry(), f) {
			t.Errorf("query %d: shrunk reproducer no longer fails on the rewrite's plan: %s", f.Query, f.ShrunkSQL)
		}
	}
	if n == 0 {
		t.Fatal("no exec-error finding on the rewrite's plan; the test is vacuous")
	}
	checkShrunkQuota(t, "failing-filter", rep)
}
