package fuzz

import (
	"bytes"
	"testing"

	"qtrtest/internal/catalog"
)

// TestEngineReportByteIdentity is the campaign-level contract between the
// two built-in engines: a fuzz campaign — which executes on the batch engine
// — replays every base query on the retained row engine (Backend "row") and
// must see checks run and none disagree, with a JSON report byte-identical
// at 1 and 8 workers. Anything less means the engines disagree on some
// plan's results. RandomCatalog always runs; TPC-H and star ride along
// unless -short.
func TestEngineReportByteIdentity(t *testing.T) {
	type db struct {
		name string
		cat  *catalog.Catalog
	}
	dbs := []db{{"rand", nil}}
	if !testing.Short() {
		dbs = append(dbs,
			db{"tpch", catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.2, Seed: 1})},
			db{"star", catalog.LoadStar(catalog.DefaultStarConfig())},
		)
	}
	for _, d := range dbs {
		t.Run(d.name, func(t *testing.T) {
			var reports [][]byte
			for _, workers := range []int{1, 8} {
				cfg := Config{Seed: 21, N: 96, Workers: workers, Backend: "row"}
				if d.cat != nil {
					cfg.Catalog = d.cat
					cfg.DB = d.name
				}
				rep, err := Run(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if rep.BackendChecks == 0 {
					t.Errorf("workers=%d: no row-engine checks ran; the campaign is vacuous", workers)
				}
				for _, f := range rep.Findings {
					t.Errorf("workers=%d: %s finding: %s\n%s", workers, f.Kind, f.Detail, f.SQL)
				}
				data, err := rep.JSON()
				if err != nil {
					t.Fatalf("workers=%d: JSON: %v", workers, err)
				}
				reports = append(reports, data)
			}
			if !bytes.Equal(reports[0], reports[1]) {
				t.Errorf("reports differ between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s",
					reports[0], reports[1])
			}
		})
	}
}
