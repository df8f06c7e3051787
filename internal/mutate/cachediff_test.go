package mutate

import (
	"bytes"
	"testing"

	"qtrtest/internal/rescache"
)

// TestCacheDifferentialAcrossWorkers: the mutation campaign's rendered
// report — scores, caught-by tables, plan-diff evidence — must be
// byte-identical with the result cache on and off at every worker count.
// Plans that recur across mutant registries hit the cache; none of that
// reuse may leak into what the report says.
func TestCacheDifferentialAcrossWorkers(t *testing.T) {
	cat := testTPCH()
	var want string
	for _, workers := range []int{1, 8} {
		for _, cached := range []bool{false, true} {
			cfg := Config{Seed: 1, Workers: workers}
			if cached {
				cfg.Cache = rescache.New(0)
			}
			score, err := Run(cat, cfg)
			if err != nil {
				t.Fatalf("workers=%d cached=%v: %v", workers, cached, err)
			}
			var buf bytes.Buffer
			score.Print(&buf, true)
			if want == "" {
				want = buf.String()
			} else if buf.String() != want {
				t.Fatalf("report differs at workers=%d cached=%v:\n--- want ---\n%s\n--- got ---\n%s",
					workers, cached, want, buf.String())
			}
			if cached && cfg.Cache.Stats().Hits == 0 {
				t.Errorf("workers=%d: cache saw zero hits across mutant registries", workers)
			}
		}
	}
}
