package fuzz

import (
	"qtrtest/internal/logical"
	"qtrtest/internal/sqlgen"
)

// shrinkBudget charges the shrinker's oracle budget by execution identity
// (check's charge): a plan execution costs one check the first time its
// identity appears during this finding's shrink and is free on every
// recurrence — exactly the executions that would miss a result cache primed
// by this shrink alone.
//
// The seen-set is deliberately local to the finding rather than asking the
// shared campaign cache "would this hit?": cache contents depend on eviction
// order and on what other workers executed first, so consulting them would
// make shrinking scheduling-dependent. The local set makes the charge
// sequence a pure function of the finding — byte-identical reports with the
// cache on or off, at any worker count — while still modeling what the
// shrinker actually costs when a cache is present, since replayed candidates
// are hits there too.
type shrinkBudget struct {
	remaining int
	seen      map[string]struct{}
}

func newShrinkBudget(n int) *shrinkBudget {
	return &shrinkBudget{remaining: n, seen: make(map[string]struct{})}
}

// charge deducts one check if this execution — whichever one the oracle
// step touches — is new to the finding.
func (b *shrinkBudget) charge(k string) {
	if _, ok := b.seen[k]; ok {
		return
	}
	b.seen[k] = struct{}{}
	b.remaining--
}

func (b *shrinkBudget) spent() bool { return b.remaining <= 0 }

// shrinkFinding minimizes the finding's query tree while the campaign's own
// check, restricted to the step that filed the finding, keeps filing it —
// the same kind under the same rule or rewrite — and records the shrunk SQL
// on the public finding. Rewrite-error findings are left unshrunk: a broken
// rewrite wants its full originating query as context.
//
// The oracle budget (maxShrinkChecks) counts distinct plan executions, not
// keep evaluations: candidates whose plans were all executed earlier in the
// shrink re-check for free. Once it is spent keep rejects every candidate,
// which ends the reduction.
func (c *campaign) shrinkFinding(f *finding) {
	if f.pub.Kind == KindRewriteError {
		return
	}
	budget := newShrinkBudget(maxShrinkChecks)
	keep := func(t *logical.Expr) bool {
		if budget.spent() {
			return false
		}
		for _, g := range c.check(t, f.md, f.pub.Query, f.pub.Seed, &f.pub, budget.charge).findings {
			if g.pub.Kind == f.pub.Kind && g.pub.Rule == f.pub.Rule && g.pub.Rewrite == f.pub.Rewrite {
				return true
			}
		}
		return false
	}
	if !keep(f.tree) {
		// The original no longer trips when re-derived (it should — every
		// stage is deterministic — so this is pure defensiveness): report
		// it unshrunk rather than attach a wrong reproducer.
		return
	}
	shrunk := Shrink(f.tree, keep)
	sqlText, err := sqlgen.Generate(shrunk, f.md)
	if err != nil {
		return
	}
	f.pub.ShrunkSQL = sqlText
	f.pub.ShrunkOps = shrunk.CountOps()
}
