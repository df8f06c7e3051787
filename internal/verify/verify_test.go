package verify

import (
	"bytes"
	"strings"
	"testing"

	"qtrtest/internal/logical"
	"qtrtest/internal/mutate"
	"qtrtest/internal/physical"
	"qtrtest/internal/rules"
)

func run(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// TestPristineRegistryClean: the default 30+17 registry verifies with zero
// findings — the CI gate's positive half.
func TestPristineRegistryClean(t *testing.T) {
	rep := run(t, Config{})
	if len(rep.Findings) != 0 {
		for _, f := range rep.Findings {
			t.Errorf("pristine rule #%d %s flagged: %s\n  instance:\n%s  database: %s",
				f.Rule, f.RuleName, f.Detail, f.Instance, f.Database)
		}
	}
	if rep.Rules != 47 {
		t.Errorf("Rules = %d, want 47", rep.Rules)
	}
	if rep.Exercised < 40 {
		t.Errorf("only %d rules exercised; the instantiation vocabulary lost coverage", rep.Exercised)
	}
	if rep.Executed == 0 {
		t.Error("no pairs executed; the sweep is vacuous")
	}
}

// TestEETRegistryClean: the EET-extended registry (rules 41-47 on top)
// verifies clean, and every EET rule is actually exercised — an EET rewrite
// that stopped firing on the vocabulary would silently weaken the gate.
func TestEETRegistryClean(t *testing.T) {
	rep := run(t, Config{Registry: rules.RegistryWithEET()})
	if !rep.EET {
		t.Error("report over the EET registry does not say eet")
	}
	if len(rep.Findings) != 0 {
		for _, f := range rep.Findings {
			t.Errorf("EET rule #%d %s flagged: %s", f.Rule, f.RuleName, f.Detail)
		}
	}
	exercised := map[int]bool{}
	for _, s := range rep.Stats {
		if s.Instances > 0 {
			exercised[s.Rule] = true
		}
	}
	for id := 41; id <= 47; id++ {
		if !exercised[id] {
			t.Errorf("EET rule #%d not exercised by any instantiation", id)
		}
	}
}

// TestAllMutantsFlagged: every seeded mutant registry must be flagged, with
// the finding naming the mutated rule — the static-detectability flip of
// DESIGN §8.3. The witness-minimality bound per kind is a regression pin:
// databases are enumerated smallest-first, so the reported witness database
// must stay at or under the hand-derived minimal size for each fault.
func TestAllMutantsFlagged(t *testing.T) {
	maxWitnessRows := map[mutate.Kind]int{
		mutate.KindSwapJoinType:       1, // lone left row, empty right side
		mutate.KindDupUnionBranch:     1, // one branch row duplicated, other elided
		mutate.KindDropFilterConjunct: 2, // a row passing one conjunct but not both
		mutate.KindDropJoinConjunct:   3, // cross product beats equi-join at 2x1
		mutate.KindFlipSortDir:        2, // two distinct leading keys
		mutate.KindLimitOffByOne:      1, // LIMIT 1 vs mutated LIMIT 0
		mutate.KindWrongAgg:           3, // a group with two distinct aggregated values
	}
	for _, m := range mutate.Mutants() {
		m := m
		t.Run(string(m.Kind), func(t *testing.T) {
			rep := run(t, Config{Registry: m.Registry()})
			if rep.Mutant != string(m.Kind) {
				t.Errorf("report names mutant %q, want the registry's %q", rep.Mutant, m.Kind)
			}
			var hit *Finding
			for i := range rep.Findings {
				if rep.Findings[i].Rule == int(m.Rule) {
					hit = &rep.Findings[i]
				} else {
					t.Errorf("unexpected finding on rule #%d %s: %s",
						rep.Findings[i].Rule, rep.Findings[i].RuleName, rep.Findings[i].Detail)
				}
			}
			if hit == nil {
				t.Fatalf("mutant %s not flagged; verifier missed rule #%d", m, m.Rule)
			}
			if want := maxWitnessRows[m.Kind]; hit.DatabaseRows > want {
				t.Errorf("witness database has %d rows, want <= %d (lost minimality)\n  database: %s",
					hit.DatabaseRows, want, hit.Database)
			}
			wantRepro := "qtrtest verify -mutant " + string(m.Kind)
			if !strings.HasPrefix(hit.Repro, wantRepro) {
				t.Errorf("repro = %q, want prefix %q", hit.Repro, wantRepro)
			}
			if hit.BasePlan == "" || hit.AltPlan == "" || hit.Detail == "" {
				t.Error("witness is missing plan pair or detail")
			}
		})
	}
}

// TestReproNamesExt: only -ext puts the extension rules (31-34) in a
// registry, so a finding under such a registry replays with -ext; without it
// "-rules 31" names no rule.
func TestReproNamesExt(t *testing.T) {
	res := &ruleResult{cfg: &Config{Registry: rules.RegistryWithExtensions(), Backend: "ref"}}
	r := rules.ExtensionRules()[0]
	plan := &physical.Expr{Op: physical.OpScan, Table: "s"}
	res.fail(r, &instance{tree: &logical.Expr{Op: logical.OpGet, Table: "s"}}, database{}, plan, plan, "detail")
	if got, want := res.finding.Repro, "qtrtest -ext -backend ref verify -rules 31"; got != want {
		t.Errorf("repro = %q, want %q", got, want)
	}
}

// TestPrintNamesUnexercisedRules: the text report names, after its header,
// the selected rules no instantiation exercised — under -ext the two
// foreign-key join eliminations, since the small-scope schema declares no
// foreign key — and prints no such line when every rule was exercised.
func TestPrintNamesUnexercisedRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *rules.Registry
		want string
	}{
		{"ext", rules.RegistryWithExtensions(), "unexercised: #31 EliminateFKJoin, #32 EliminateFKSemiJoin"},
		{"default", rules.DefaultRegistry(), ""},
	} {
		var sb strings.Builder
		run(t, Config{Registry: tc.reg}).Print(&sb)
		lines := strings.Split(sb.String(), "\n")
		got := ""
		if len(lines) > 1 && strings.HasPrefix(lines[1], "unexercised:") {
			got = lines[1]
		}
		if got != tc.want {
			t.Errorf("%s: the line after the header is %q, want %q", tc.name, got, tc.want)
		}
		if n := strings.Count(sb.String(), "unexercised:"); n > 1 {
			t.Errorf("%s: %d unexercised lines, want at most one", tc.name, n)
		}
	}
}

// TestRulesFilterAndRepro: -rules restricts the sweep and the repro line
// replays exactly the failing slice.
func TestRulesFilterAndRepro(t *testing.T) {
	ms, err := mutate.ByKind(mutate.KindFlipSortDir)
	if err != nil {
		t.Fatal(err)
	}
	rep := run(t, Config{Registry: ms[0].Registry(), Rules: []rules.ID{116}})
	if rep.Rules != 1 {
		t.Fatalf("Rules = %d, want 1", rep.Rules)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %d, want 1", len(rep.Findings))
	}
	if got, want := rep.Findings[0].Repro, "qtrtest verify -mutant flip-sort-dir -rules 116"; got != want {
		t.Errorf("repro = %q, want %q", got, want)
	}
	if _, err := Run(Config{Rules: []rules.ID{9999}}); err == nil {
		t.Error("unknown rule id accepted")
	}
}

// TestWorkerCountInvariance: the full report is byte-identical for one
// worker and many — the determinism contract the CI gate and repro lines
// rely on.
func TestWorkerCountInvariance(t *testing.T) {
	ms, err := mutate.ByKind(mutate.KindWrongAgg)
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range []struct {
		name string
		cfg  Config
	}{
		{"pristine", Config{}},
		{"mutant", Config{Registry: ms[0].Registry()}},
	} {
		one := run(t, Config{Registry: reg.cfg.Registry, Workers: 1})
		many := run(t, Config{Registry: reg.cfg.Registry, Workers: 8})
		j1, err := one.JSON()
		if err != nil {
			t.Fatal(err)
		}
		j8, err := many.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1, j8) {
			t.Errorf("%s: report differs between workers=1 and workers=8", reg.name)
		}
	}
}

// TestReportRendering: the text form carries the witness and the summary
// line; a smoke test so CLI output stays useful.
func TestReportRendering(t *testing.T) {
	ms, err := mutate.ByKind(mutate.KindLimitOffByOne)
	if err != nil {
		t.Fatal(err)
	}
	rep := run(t, Config{Registry: ms[0].Registry(), Rules: []rules.ID{117}})
	var sb bytes.Buffer
	rep.Print(&sb)
	out := sb.String()
	for _, want := range []string{"registry=mutant:limit-off-by-one", "FINDING rule #117 LimitToLimit", "repro: qtrtest verify -mutant limit-off-by-one -rules 117"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

// TestLabelsComeFromTheRegistry: the report, its text header and the repro
// line name what the registry holds. A mutant registry extended with the EET
// pack is both; the extension pack shows in the text header (the JSON form
// has no field for it, and -ext is in the repro line).
func TestLabelsComeFromTheRegistry(t *testing.T) {
	ms, err := mutate.ByKind(mutate.KindLimitOffByOne)
	if err != nil {
		t.Fatal(err)
	}
	rep := run(t, Config{Registry: rules.Extend(ms[0].Registry(), rules.EETRules()...), Rules: []rules.ID{117}})
	if rep.Mutant != "limit-off-by-one" || !rep.EET {
		t.Errorf("mutant+EET registry reported mutant=%q eet=%v", rep.Mutant, rep.EET)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %d, want 1", len(rep.Findings))
	}
	if got, want := rep.Findings[0].Repro, "qtrtest verify -mutant limit-off-by-one -eet -rules 117"; got != want {
		t.Errorf("repro = %q, want %q", got, want)
	}

	for _, c := range []struct {
		reg  *rules.Registry
		want string
	}{
		{rules.DefaultRegistry(), "verify: registry=default rules=1 "},
		{rules.RegistryWithExtensions(), "verify: registry=default+ext rules=1 "},
		{rules.Extend(rules.RegistryWithExtensions(), rules.EETRules()...), "verify: registry=default+ext+eet rules=1 "},
	} {
		rep := run(t, Config{Registry: c.reg, Rules: []rules.ID{1}})
		var sb bytes.Buffer
		rep.Print(&sb)
		if !strings.HasPrefix(sb.String(), c.want) {
			t.Errorf("header = %q, want prefix %q", strings.SplitN(sb.String(), "\n", 2)[0], c.want)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte(`"ext"`)) {
			t.Errorf("the JSON report grew an ext field:\n%s", data)
		}
	}
}
