package opt

import (
	"qtrtest/internal/memo"
	"qtrtest/internal/rules"
)

// exploreReference is the pass-based exploration fixpoint the dirty-queue
// explorer replaced, preserved verbatim as the reference semantics. The
// differential tests run it through Options.exploreOverride and require the
// production explorer to produce byte-identical memos, rule sets, and plans.
func exploreReference(o *Optimizer, ctx *rules.Context, tab *ruleTab, maxExprs, maxPasses int) {
	m := ctx.Memo
	expl := o.reg.Exploration()
	// Pattern bindings of an expression depend only on the expressions in
	// its child groups (patterns are at most two concrete levels deep).
	// kidVersion lets a pass skip re-binding a rule whose pattern found
	// nothing last time unless a child group has grown since.
	kidVersion := func(e *memo.MExpr) int {
		v := 0
		for _, k := range e.Kids {
			v += len(m.Group(k).Exprs)
		}
		return v
	}
	triedAt := make(map[*memo.MExpr]int)
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		// Groups and expressions grow during iteration; index-based loops
		// pick the new ones up within the same pass.
		for gi := 1; gi <= m.NumGroups(); gi++ {
			g := m.Group(memo.GroupID(gi))
			for ei := 0; ei < len(g.Exprs); ei++ {
				e := g.Exprs[ei]
				ver := kidVersion(e)
				if v, ok := triedAt[e]; ok && v == ver {
					continue
				}
				triedAt[e] = ver
				for _, r := range expl {
					p := o.reg.Pos(r.ID())
					if tab.off(p) || e.WasApplied(int(r.ID())) {
						continue
					}
					binds := rules.Bind(m, e, r.Pattern())
					if len(binds) == 0 {
						// The pattern may start matching later, once child
						// groups gain expressions; retry when they grow.
						continue
					}
					e.MarkApplied(int(r.ID()))
					for _, b := range binds {
						subs := r.Apply(ctx, b)
						if len(subs) > 0 {
							tab.fire(p, r.ID(), b)
						}
						for _, sub := range subs {
							if m.InsertSubstituteFrom(sub, e.Group, int(r.ID())) {
								changed = true
							}
						}
					}
					if m.NumExprs() >= maxExprs {
						return
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}
