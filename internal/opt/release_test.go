package opt_test

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/core/qgen"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/opt"
	"qtrtest/internal/physical"
	"qtrtest/internal/rules"
)

// releaseCase is one Optimize call of the release tests, and the rules its
// Result is then asked to do Without (every fourth case only): the
// implementation rules it exercised and the first exploration rule.
type releaseCase struct {
	name     string
	q        *qgen.Query
	disabled rules.Set
	without  []rules.ID
}

// releaseWorkload is one database's cases and what a fresh Optimizer that
// never releases anything answers for each, and for each with one more rule
// disabled.
type releaseWorkload struct {
	cat         *catalog.Catalog
	cases       []releaseCase
	want        []string
	wantWithout [][]string
}

// outcome renders everything a released Result promises to keep: the plan —
// every field of every node, and its hash — cost, rule set and interactions,
// or the error.
func outcome(res *opt.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var inter []string
	for pair := range res.Interactions {
		inter = append(inter, fmt.Sprint(pair))
	}
	sort.Strings(inter)
	return fmt.Sprintf("hash %s cost %v rules %v interactions %v\n%s%s",
		res.Plan.Hash(), res.Cost, res.RuleSet.Sorted(), inter, res.Plan, opt.DumpPlan(res.Plan))
}

// withoutOutcome renders a plan Without returned, every field of every node,
// or its error.
func withoutOutcome(p *physical.Expr, err error) string {
	if err != nil {
		return planAnswer(nil, err)
	}
	return planAnswer(p, nil) + opt.DumpPlan(p)
}

// releaseWorkloads builds, for TPC-H and star, the PATTERN query of each of
// the first 8 exploration rules, to be optimized with every rule on and with
// each pair of the 8 disabled — the calls of a pair campaign's edges.
func releaseWorkloads(t *testing.T, reg *rules.Registry) []releaseWorkload {
	t.Helper()
	var ids []rules.ID
	for _, r := range reg.Exploration() {
		if len(ids) < 8 {
			ids = append(ids, r.ID())
		}
	}
	var out []releaseWorkload
	for _, d := range []struct {
		db  string
		cat *catalog.Catalog
	}{
		{"tpch", catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1, Seed: 42})},
		{"star", catalog.LoadStar(catalog.StarConfig{ScaleRows: 1, Seed: 42})},
	} {
		db, cat := d.db, d.cat
		w := releaseWorkload{cat: cat}
		fresh := opt.New(reg, cat)
		gen, err := qgen.New(opt.New(reg, cat), qgen.Config{Seed: 42, ExtraOps: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			q, err := gen.GeneratePattern(id)
			if err != nil {
				t.Fatalf("%s rule %d: %v", db, id, err)
			}
			sets := []rules.Set{nil}
			for i, a := range ids {
				for _, b := range ids[i+1:] {
					sets = append(sets, rules.NewSet(a, b))
				}
			}
			for _, disabled := range sets {
				c := releaseCase{name: fmt.Sprintf("%s PATTERN(%d) disabled %v", db, id, disabled.Sorted()), q: q, disabled: disabled}
				res, err := fresh.Optimize(q.Tree, q.MD, opt.Options{Disabled: disabled})
				var alts []string
				if err == nil && len(w.cases)%4 == 0 {
					explored := false
					for _, id := range res.RuleSet.Sorted() {
						if rule, _ := reg.ByID(id); rule.Kind() == rules.KindExploration {
							if explored {
								continue
							}
							explored = true
						}
						c.without = append(c.without, id)
						var p *physical.Expr
						alt, err := fresh.Optimize(q.Tree, q.MD, opt.Options{Disabled: disabled.Union(rules.NewSet(id))})
						if err == nil {
							p = alt.Plan
						}
						alts = append(alts, withoutOutcome(p, err))
					}
				}
				w.cases = append(w.cases, c)
				w.want = append(w.want, outcome(res, err))
				w.wantWithout = append(w.wantWithout, alts)
			}
		}
		out = append(out, w)
	}
	return out
}

// TestReleasedScratchIsInvisible is the scratch pool's hygiene guard. Every
// Result is released with its whole working set poisoned on the way to the
// pool — memo storage, explorer and implementor tables, stats, and every
// candidate as it is released — and four goroutines share each Optimizer. What
// a released Result keeps (plan, hash, cost, rule set, interactions) must
// equal, when it is released and again after every later optimization has run
// in the recycled scratches, what a fresh Optimizer that never releases
// answers: a plan that points into a scratch, or an optimization that reads
// one byte its predecessor left behind, shows here and not in a campaign. The
// same goes for the plans Result.Without derives from the held memo before the
// release — by re-costing it, and in a second scratch for an exploration rule —
// and Without on a released Result is an error.
func TestReleasedScratchIsInvisible(t *testing.T) {
	for _, w := range releaseWorkloads(t, rules.DefaultRegistry()) {
		o := opt.New(rules.DefaultRegistry(), w.cat)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				held := make([]*opt.Result, len(w.cases))
				heldAlts := make([][]*physical.Expr, len(w.cases))
				// checkAlts compares the plans Without returned for case i with
				// a fresh Optimizer's.
				checkAlts := func(i int, when string) bool {
					for k, p := range heldAlts[i] {
						if p == nil {
							continue
						}
						if got := withoutOutcome(p, nil); got != w.wantWithout[i][k] {
							t.Errorf("%s: Without(%d) %s differs from a fresh optimizer's:\n got %s\nwant %s", w.cases[i].name, w.cases[i].without[k], when, got, w.wantWithout[i][k])
							return false
						}
					}
					return true
				}
				for n := range w.cases {
					i := (n + g*len(w.cases)/4) % len(w.cases) // each goroutine starts elsewhere
					c := w.cases[i]
					res, err := o.Optimize(c.q.Tree, c.q.MD, opt.Options{Disabled: c.disabled}.WithPoison())
					if err == nil {
						if res.Memo == nil || res.Memo.NumExprs() == 0 {
							t.Errorf("%s: no memo before Release", c.name)
						}
						for k, id := range c.without {
							p, err := res.Without(id)
							if err != nil {
								if got := withoutOutcome(nil, err); got != w.wantWithout[i][k] {
									t.Errorf("%s: Without(%d): %s, a fresh optimizer: %s", c.name, id, got, w.wantWithout[i][k])
								}
							}
							heldAlts[i] = append(heldAlts[i], p)
						}
						res.Release()
						res.Release() // a no-op: the scratch may be another call's by now
						if res.Memo != nil {
							t.Errorf("%s: Memo survives Release", c.name)
						}
						if p, err := res.Without(1); p != nil || err == nil || errors.Is(err, opt.ErrNoPlan) {
							t.Errorf("%s: Without after Release returns (%v, %v), want an error of its own", c.name, p, err)
						}
						if !checkAlts(i, "after Release") {
							return
						}
					}
					if got := outcome(res, err); got != w.want[i] {
						t.Errorf("%s: released result differs from a fresh optimizer's:\n got %s\nwant %s", c.name, got, w.want[i])
						return
					}
					held[i] = res
				}
				if len(w.cases) < 100 {
					t.Errorf("only %d optimizations followed the first release", len(w.cases))
				}
				for i, res := range held {
					if res == nil {
						continue
					}
					if got := outcome(res, nil); got != w.want[i] {
						t.Errorf("%s: released result changed under later optimizations:\n now %s\nthen %s", w.cases[i].name, got, w.want[i])
						return
					}
					if !checkAlts(i, "after later optimizations") {
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestPanickingRuleLeavesPoolClean: a custom rule that panics in the middle of
// an exploration takes its scratch with it — half-explored memo, dirty
// worklists, live bindings — instead of leaving it for the next call. The
// optimizations that follow on the same Optimizer, released and poisoned as
// above, answer what a fresh Optimizer does.
func TestPanickingRuleLeavesPoolClean(t *testing.T) {
	var armed atomic.Bool
	var applied atomic.Int64
	bomb := rules.NewExplorationRule(77, "Bomb", rules.P(logical.OpJoin, rules.Any(), rules.Any()),
		func(ctx *rules.Context, b *memo.BoundExpr) []*memo.BoundExpr {
			if !armed.Load() {
				return nil
			}
			// Leave substitutes and an owned payload node behind, then blow up
			// once the exploration is well under way.
			ctx.Memo.BoundNew(logical.Expr{Op: logical.OpLimit, N: 1}, ctx.Memo.Bound(b.Node, b.Kids[1], b.Kids[0]))
			if applied.Add(1)%3 == 0 {
				panic("bomb")
			}
			return nil
		})
	reg := rules.RegistryWith(bomb)
	for _, w := range releaseWorkloads(t, reg) {
		o := opt.New(reg, w.cat)
		optimize := func(c releaseCase) (res *opt.Result, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = errors.New("panic: " + fmt.Sprint(r))
				}
			}()
			res, err = o.Optimize(c.q.Tree, c.q.MD, opt.Options{Disabled: c.disabled}.WithPoison())
			if err == nil {
				res.Release()
			}
			return res, err
		}
		// Warm the pool, then blow up in scratches taken from it.
		for _, c := range w.cases[:8] {
			optimize(c)
		}
		armed.Store(true)
		panics := 0
		for _, c := range w.cases {
			if _, err := optimize(c); err != nil && err.Error() == "panic: bomb" {
				panics++
			}
		}
		armed.Store(false)
		if panics < 10 {
			t.Fatalf("only %d optimizations panicked: the test blew up nothing", panics)
		}
		for i, c := range w.cases[:50] {
			if got := outcome(optimize(c)); got != w.want[i] {
				t.Fatalf("%s: after %d panics the result differs from a fresh optimizer's:\n got %s\nwant %s", c.name, panics, got, w.want[i])
			}
		}
	}
}
