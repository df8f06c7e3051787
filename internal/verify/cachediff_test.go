package verify

import (
	"bytes"
	"testing"

	"qtrtest/internal/rescache"
)

// TestCacheDifferentialAcrossWorkers: the small-scope verifier's JSON report
// must be byte-identical with the result cache on and off at every worker
// count, with the reference-engine cross-check off and on. Verification
// instantiates each rule pattern over the same tiny databases, so both sides
// of many rewrite pairs resolve to identical plans across rules — reuse the
// cache exploits, and reuse that must not alter a single finding or stat.
func TestCacheDifferentialAcrossWorkers(t *testing.T) {
	for _, backend := range []string{"", "ref"} {
		var want []byte
		for _, workers := range []int{1, 8} {
			for _, cached := range []bool{false, true} {
				cfg := Config{Workers: workers, Backend: backend}
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
				if cached && cfg.Cache.Stats().Hits == 0 {
					t.Errorf("backend=%q workers=%d: cache saw zero hits across rule instantiations", backend, workers)
				}
			}
		}
	}
}

// TestVerifyCacheCounts pins a default sweep's cache counters on a fresh
// cache. Without eviction a miss is a distinct key — an entry created, which
// stays — and a hit is every later request for it, so both are a function
// of the key stream alone: the same at any worker count, and unchanged by
// how the cache lays out its entries. The benchmark's plans_per_s is misses
// over wall time, so a cache that counted a miss any other way would move it.
func TestVerifyCacheCounts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := rescache.New(0)
		if _, err := Run(Config{Workers: workers, Cache: c}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		st := c.Stats()
		if st.Hits != 6200 || st.Misses != 32048 || st.Evictions != 0 || st.Entries != 32048 {
			t.Errorf("workers=%d: stats = %+v, want 6200 hits, 32048 misses and entries, 0 evictions", workers, st)
		}
	}
}
