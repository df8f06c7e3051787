package opt_test

import (
	"slices"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/exec"
	"qtrtest/internal/fnv64"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/opt"
	"qtrtest/internal/rules"
)

// TestFingerprintCollisions counts interned expressions that share a
// fingerprint without being equal, over the differential corpora and 200
// fuzz-drawn trees per schema (seeds 1 and 42): within each memo on the full
// interning key (payload, then child groups), and across all memos of a
// schema on the payload part alone. The count must stay 0; if it does not,
// the word-wise mixing needs a stronger per-word step. Correctness does not
// depend on it — the memo confirms every bucket hit, and the collideAll test
// runs a whole memo in one bucket — but each collision costs an equality
// check on every probe of its bucket.
func TestFingerprintCollisions(t *testing.T) {
	for _, d := range []struct {
		db     string
		cat    *catalog.Catalog
		corpus []string
	}{
		{"tpch", catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1, Seed: 42}), opt.TPCHCorpus},
		{"star", catalog.LoadStar(catalog.StarConfig{ScaleRows: 1, Seed: 42}), opt.StarCorpus},
	} {
		o := opt.New(rules.DefaultRegistry(), d.cat)
		// Results are kept, not released: payloads holds nodes of their memos.
		payloads := map[uint64]*logical.Expr{}
		exprs, collisions := 0, 0
		for _, q := range withoutQueries(t, d.cat, d.corpus, 100) {
			res, err := o.Optimize(q.Tree, q.MD, opt.Options{})
			if err != nil {
				continue
			}
			interned := map[uint64]*memo.MExpr{}
			for _, g := range res.Memo.Groups() {
				for _, e := range g.Exprs {
					exprs++
					// The memo's interning key: the payload, then the kids.
					h := fnv64.New()
					e.Node.PayloadFingerprint(&h)
					if p, ok := payloads[h.Sum()]; !ok {
						payloads[h.Sum()] = e.Node
					} else if !p.PayloadEqual(e.Node) {
						collisions++
						t.Errorf("%s: payloads %s and %s share fingerprint %#x", d.db, exec.Lower(p).Hash(), exec.Lower(e.Node).Hash(), h.Sum())
					}
					for _, k := range e.Kids {
						h.Int(int64(k))
					}
					if prev, ok := interned[h.Sum()]; !ok {
						interned[h.Sum()] = e
					} else if !prev.Node.PayloadEqual(e.Node) || !slices.Equal(prev.Kids, e.Kids) {
						collisions++
						t.Errorf("%s: %s%v and %s%v share fingerprint %#x", d.db, exec.Lower(prev.Node).Hash(), prev.Kids, exec.Lower(e.Node).Hash(), e.Kids, h.Sum())
					}
				}
			}
		}
		t.Logf("%s: %d interned expressions, %d distinct payloads, %d collisions", d.db, exprs, len(payloads), collisions)
		if exprs < 1000 {
			t.Errorf("%s: only %d interned expressions; the corpus lost its coverage", d.db, exprs)
		}
	}
}
