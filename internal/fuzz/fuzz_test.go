package fuzz

import (
	"bytes"
	"strings"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/mutate"
	"qtrtest/internal/rules"
)

// TestDeterminismAcrossWorkers is the campaign's core contract: the same
// seed produces a byte-identical JSON report at every worker count.
func TestDeterminismAcrossWorkers(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.1, Seed: 1})
	var reports [][]byte
	for _, workers := range []int{1, 8} {
		rep, err := Run(Config{Seed: 7, N: 96, Workers: workers, Catalog: cat, DB: "tpch"})
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
		t.Errorf("reports differ between -workers 1 and 8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			reports[0], reports[1])
	}
}

// TestPristineNoFindings: under the unmutated registry, neither the
// differential nor the metamorphic oracle may fire — any finding here is a
// false positive in the fuzzer itself.
func TestPristineNoFindings(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	for _, seed := range []int64{1, 42} {
		rep, err := Run(Config{Seed: seed, N: 200, Workers: 8, Catalog: cat, DB: "tpch"})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if len(rep.Findings) != 0 {
			f := rep.Findings[0]
			t.Errorf("seed=%d: pristine campaign reported %d findings; first: kind=%s rule=%d rewrite=%q detail=%s sql=%s",
				seed, len(rep.Findings), f.Kind, f.Rule, f.Rewrite, f.Detail, f.SQL)
		}
		if rep.Generated == 0 {
			t.Errorf("seed=%d: no queries reached execution", seed)
		}
		if rep.PlanShapes < 10 {
			t.Errorf("seed=%d: only %d distinct plan shapes; steering has nothing to work with", seed, rep.PlanShapes)
		}
	}
}

// TestPristineRandomCatalog runs the pristine oracle over a generated
// catalog: the random-schema path must be as false-positive-free as TPC-H.
func TestPristineRandomCatalog(t *testing.T) {
	rep, err := Run(Config{Seed: 3, N: 150, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DB != "rand" {
		t.Errorf("defaulted catalog should label the report rand, got %q", rep.DB)
	}
	if len(rep.Findings) != 0 {
		f := rep.Findings[0]
		t.Errorf("pristine random-catalog campaign reported %d findings; first: kind=%s rule=%d rewrite=%q detail=%s sql=%s",
			len(rep.Findings), f.Kind, f.Rule, f.Rewrite, f.Detail, f.SQL)
	}
	if rep.Generated == 0 {
		t.Error("no queries reached execution on the random catalog")
	}
}

// TestReproLine pins the reproducer format: it must name the seed, db and
// mutant, and promise worker-independence. The mutant is the registry's own
// (Registry.Mutant); no label beside it says so.
func TestReproLine(t *testing.T) {
	ms, err := mutate.ByKind(mutate.KindWrongAgg)
	if err != nil {
		t.Fatal(err)
	}
	tpch := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	cfg := Config{Seed: 9, N: 50, DB: "tpch", Catalog: tpch, Registry: ms[0].Registry()}
	cfg.setDefaults()
	got := cfg.repro()
	want := "qtrtest -db tpch -seed 9 fuzz -n 50 -mutant wrong-agg  # any -workers"
	if got != want {
		t.Errorf("repro line:\n got %q\nwant %q", got, want)
	}
	rcfg := Config{Seed: 4}
	rcfg.setDefaults()
	got = rcfg.repro()
	want = "qtrtest -seed 4 fuzz -n 500 -randcat  # any -workers"
	if got != want {
		t.Errorf("randcat repro line:\n got %q\nwant %q", got, want)
	}
	ecfg := Config{Seed: 9, N: 50, DB: "tpch", Catalog: tpch, Registry: ms[0].Registry(), EET: true}
	ecfg.setDefaults()
	got = ecfg.repro()
	want = "qtrtest -db tpch -seed 9 fuzz -n 50 -eet -mutant wrong-agg  # any -workers"
	if got != want {
		t.Errorf("eet repro line:\n got %q\nwant %q", got, want)
	}
}

// TestDBLabelNeedsItsCatalog: with no Catalog a campaign runs on the random
// catalog, so a DB label naming another database would print a -db that
// replays a different campaign. Run refuses it; "" and "rand" name the
// random catalog and run.
func TestDBLabelNeedsItsCatalog(t *testing.T) {
	if _, err := Run(Config{Seed: 9, N: 1, DB: "tpch"}); err == nil || !strings.Contains(err.Error(), `"tpch"`) {
		t.Errorf("DB \"tpch\" without a catalog: err = %v, want an error naming the label", err)
	}
	for _, db := range []string{"", "rand"} {
		rep, err := Run(Config{Seed: 9, N: 1, DB: db})
		if err != nil {
			t.Errorf("DB %q without a catalog: %v", db, err)
		} else if rep.DB != "rand" {
			t.Errorf("DB %q without a catalog: report says db %q, want rand", db, rep.DB)
		}
	}
}

// TestReproLineNamesScaleAndExt: a reproducer names every global flag the
// campaign depends on. A TPC-H catalog loaded at row scale 0.25 is the CLI's
// -scale 0.25, and a registry holding the extension rules is -ext; a random
// catalog ignores -scale, so its line never names one.
func TestReproLineNamesScaleAndExt(t *testing.T) {
	ms, err := mutate.ByKind(mutate.KindWrongAgg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		Seed: 42, N: 64, Workers: 2, DB: "tpch",
		Catalog:  catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.25, Seed: 42}),
		Registry: ms[0].Registry(), StopOnFinding: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("the wrong-agg campaign at scale 0.25 found nothing")
	}
	if got, want := rep.Findings[0].Repro, "qtrtest -db tpch -scale 0.25 -seed 42 fuzz -n 64 -mutant wrong-agg  # any -workers"; got != want {
		t.Errorf("repro line:\n got %q\nwant %q", got, want)
	}

	ext := Config{Seed: 9, N: 50, DB: "star", Catalog: catalog.LoadStar(catalog.DefaultStarConfig()), Registry: rules.RegistryWithExtensions()}
	ext.setDefaults()
	if got, want := ext.repro(), "qtrtest -db star -ext -seed 9 fuzz -n 50  # any -workers"; got != want {
		t.Errorf("-ext repro line:\n got %q\nwant %q", got, want)
	}
	rnd := Config{Seed: 4, Registry: rules.RegistryWithExtensions()}
	rnd.setDefaults()
	if got, want := rnd.repro(), "qtrtest -ext -seed 4 fuzz -n 500 -randcat  # any -workers"; got != want {
		t.Errorf("-ext randcat repro line:\n got %q\nwant %q", got, want)
	}
}

// TestRandomCatalogDeterministic: the same seed must build the same catalog.
func TestRandomCatalogDeterministic(t *testing.T) {
	a, b := RandomCatalog(11), RandomCatalog(11)
	an, bn := a.TableNames(), b.TableNames()
	if len(an) == 0 || len(an) != len(bn) {
		t.Fatalf("table counts differ: %d vs %d", len(an), len(bn))
	}
	for i := range an {
		ta, _ := a.Table(an[i])
		tb, _ := b.Table(bn[i])
		if ta.Name != tb.Name || len(ta.Columns) != len(tb.Columns) || len(ta.Rows) != len(tb.Rows) {
			t.Errorf("table %d differs: %s/%d cols/%d rows vs %s/%d cols/%d rows",
				i, ta.Name, len(ta.Columns), len(ta.Rows), tb.Name, len(tb.Columns), len(tb.Rows))
		}
	}
}

// TestStringDomainCarriesFramingBytes pins that the widened random-value
// domain actually reaches generated tables: some catalog must contain a
// string value with a framing byte, or the key-encoding regression coverage
// this domain exists for is silently gone.
func TestStringDomainCarriesFramingBytes(t *testing.T) {
	found := false
	for seed := int64(0); seed < 20 && !found; seed++ {
		cat := RandomCatalog(seed)
		for _, name := range cat.TableNames() {
			tbl, err := cat.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range tbl.Rows {
				for _, dm := range row {
					for _, b := range []byte(dm.Str()) {
						if b == '|' || b == ':' || b == ';' {
							found = true
						}
					}
				}
			}
		}
	}
	if !found {
		t.Error("no random catalog produced a string containing a key-framing byte (| : ;)")
	}
}
