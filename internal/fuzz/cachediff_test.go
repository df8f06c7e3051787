package fuzz

import (
	"bytes"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/rescache"
)

// TestCacheDifferentialAcrossWorkers is the result cache's correctness
// contract for the fuzz campaign: the JSON report must be byte-identical
// with the cache on and off, at every worker count, with the reference-engine
// cross-check off and on. Cached rows are shared read-only and cached errors
// replay verbatim, so the cache may change only how fast a campaign runs,
// never what it reports.
func TestCacheDifferentialAcrossWorkers(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.1, Seed: 1})
	for _, backend := range []string{"", "ref"} {
		var want []byte
		for _, workers := range []int{1, 8} {
			for _, cached := range []bool{false, true} {
				cfg := Config{Seed: 7, N: 96, Workers: workers, Catalog: cat, DB: "tpch", Backend: backend}
				if cached {
					cfg.Cache = rescache.New(0)
				}
				rep, err := Run(cfg)
				if err != nil {
					t.Fatalf("backend=%q workers=%d cached=%v: %v", backend, workers, cached, err)
				}
				data, err := rep.JSON()
				if err != nil {
					t.Fatalf("backend=%q workers=%d cached=%v: JSON: %v", backend, workers, cached, err)
				}
				if want == nil {
					want = data
				} else if !bytes.Equal(data, want) {
					t.Fatalf("backend=%q: report differs at workers=%d cached=%v:\n--- want ---\n%s\n--- got ---\n%s",
						backend, workers, cached, want, data)
				}
				if cached {
					st := cfg.Cache.Stats()
					if st.Hits == 0 {
						t.Errorf("backend=%q workers=%d: cache saw zero hits; the campaign has no plan overlap to test", backend, workers)
					}
				}
			}
		}
	}
}

// TestCacheDifferentialUnderEviction: a cache squeezed hard enough to evict
// constantly still changes nothing in the report — eviction only forces
// recompute, and recompute is deterministic.
func TestCacheDifferentialUnderEviction(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.1, Seed: 1})
	base, err := Run(Config{Seed: 5, N: 64, Workers: 4, Catalog: cat, DB: "tpch"})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := base.JSON()
	if err != nil {
		t.Fatal(err)
	}
	tiny := rescache.New(64 << 10) // 64 KiB: forces heavy eviction on TPC-H rows
	rep, err := Run(Config{Seed: 5, N: 64, Workers: 4, Catalog: cat, DB: "tpch", Cache: tiny})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("report differs under a 64 KiB cache:\n--- uncached ---\n%s\n--- tiny cache ---\n%s",
			wantJSON, gotJSON)
	}
}
