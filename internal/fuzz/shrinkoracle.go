package fuzz

import (
	"errors"

	"qtrtest/internal/bind"
	"qtrtest/internal/core/oracle"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/physical"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rules"
	"qtrtest/internal/sqlgen"
)

// shrinkBudget charges the shrinker's oracle budget by execution identity: a
// plan execution costs one check the first time its cache key appears during
// this finding's shrink and is free on every recurrence — exactly the
// executions that would miss a result cache primed by this shrink alone.
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
	seen      map[rescache.Key]struct{}
}

func newShrinkBudget(n int) *shrinkBudget {
	return &shrinkBudget{remaining: n, seen: make(map[rescache.Key]struct{})}
}

// charge deducts one check if this execution key — whichever one the oracle
// step touches — is new to the finding.
func (b *shrinkBudget) charge(k rescache.Key) {
	if _, ok := b.seen[k]; ok {
		return
	}
	b.seen[k] = struct{}{}
	b.remaining--
}

func (b *shrinkBudget) spent() bool { return b.remaining <= 0 }

// shrinkFinding minimizes the finding's query tree while the same oracle
// keeps failing, and records the shrunk SQL on the public finding. Each kind
// gets its own keep predicate; rewrite-error findings are left unshrunk — a
// broken rewrite wants its full originating query as context.
//
// The oracle budget (maxShrinkChecks) counts distinct plan executions,
// not keep evaluations: candidates whose plans were all executed earlier in
// the shrink re-check for free, so the budget buys strictly more reductions
// than it used to. Shrink's own check bound is effectively disabled — budget
// exhaustion rejects every candidate, which terminates the reduction loop.
func (c *campaign) shrinkFinding(f *finding) {
	budget := newShrinkBudget(maxShrinkChecks)
	var keep func(*logical.Expr) bool
	switch f.pub.Kind {
	case KindDifferential:
		keep = func(t *logical.Expr) bool {
			return !budget.spent() && c.diffTrips(t, f.md, rules.ID(f.pub.Rule), budget)
		}
	case KindMetamorphic:
		keep = func(t *logical.Expr) bool {
			return !budget.spent() && c.metaTrips(t, f.md, f.pub.Rewrite, f.pub.Seed, budget)
		}
	case KindExecError:
		keep = func(t *logical.Expr) bool {
			return !budget.spent() && c.execErrs(t, f.md, rules.ID(f.pub.Rule), budget)
		}
	case KindBackend:
		keep = func(t *logical.Expr) bool {
			return !budget.spent() && c.backendTrips(t, f.md, budget)
		}
	default:
		return
	}
	if !keep(f.tree) {
		// The original no longer trips when re-derived (it should — every
		// stage is deterministic — so this is pure defensiveness): report
		// it unshrunk rather than attach a wrong reproducer.
		return
	}
	shrunk := Shrink(f.tree, keep, 1<<30)
	sqlText, err := sqlgen.Generate(shrunk, f.md)
	if err != nil {
		return
	}
	f.pub.ShrunkSQL = sqlText
	f.pub.ShrunkOps = shrunk.CountOps()
}

// replan runs a candidate tree through the standard pipeline up to the
// optimized base plan, returning the re-bound tree alongside. The result is
// the caller's to release, and nil when the candidate no longer binds, plans,
// or fits the cost cap.
func (c *campaign) replan(t *logical.Expr, md *logical.Metadata) (*bind.Bound, *opt.Result) {
	sqlText, err := sqlgen.Generate(t, md)
	if err != nil {
		return nil, nil
	}
	bound, err := bind.BindSQL(sqlText, c.cfg.Catalog)
	if err != nil {
		return nil, nil
	}
	res, err := c.opt.Optimize(bound.Tree, bound.MD, opt.Options{})
	if err != nil {
		return nil, nil
	}
	if res.Plan.Cost > maxCost {
		res.Release()
		return nil, nil
	}
	return bound, res
}

// chargedBase charges and executes one plan of a candidate as an oracle base.
func (c *campaign) chargedBase(plan *physical.Expr, budget *shrinkBudget) (oracle.Base, error) {
	p := oracle.Prepare(plan)
	budget.charge(c.oracle.Key(c.cfg.Catalog, p))
	return c.oracle.Base(c.cfg.Catalog, p)
}

// edgeTrips reports whether alt still mismatches the base. An alternative
// that was executed (capped included) is charged; an identical one is free.
func (c *campaign) edgeTrips(base *oracle.Base, alt *physical.Expr, budget *shrinkBudget) bool {
	p := oracle.Prepare(alt)
	out, err := c.oracle.Edge(base, p)
	if err != nil {
		return false
	}
	if out.Verdict != oracle.Identical {
		budget.charge(c.oracle.Key(c.cfg.Catalog, p))
	}
	return out.Verdict == oracle.Mismatch
}

// diffTrips reports whether the differential oracle still flags the query
// with rule id disabled.
func (c *campaign) diffTrips(t *logical.Expr, md *logical.Metadata, id rules.ID, budget *shrinkBudget) bool {
	_, res := c.replan(t, md)
	if res == nil {
		return false
	}
	defer res.Release()
	base, err := c.chargedBase(res.Plan, budget)
	if err != nil {
		return false
	}
	alt, err := res.Without(id)
	return err == nil && !(alt.Cost > maxCost) && c.edgeTrips(&base, alt, budget)
}

// metaTrips reports whether the named metamorphic rewrite still applies to
// the query and still produces mismatching results. seed is the finding's
// derived seed, so seed-dependent rewrites (EET site selection) replay the
// same choice on each shrink candidate.
func (c *campaign) metaTrips(t *logical.Expr, md *logical.Metadata, name string, seed int64, budget *shrinkBudget) bool {
	bound, res := c.replan(t, md)
	if res == nil {
		return false
	}
	res.Release()
	base, err := c.chargedBase(res.Plan, budget)
	if err != nil {
		return false
	}
	for _, rw := range c.rewrites {
		if rw.Name != name {
			continue
		}
		alt := rw.Apply(bound.Tree, bound.MD, seed)
		if alt == nil {
			return false
		}
		altPlan, err := c.planTree(alt, bound.MD)
		if err != nil || altPlan.Cost > maxCost {
			return false
		}
		return c.edgeTrips(&base, altPlan, budget)
	}
	return false
}

// backendTrips reports whether the cross-engine oracle still fires on the
// candidate: the independent backend's replay of the query either errors
// where the base succeeded or produces mismatching results.
func (c *campaign) backendTrips(t *logical.Expr, md *logical.Metadata, budget *shrinkBudget) bool {
	bound, res := c.replan(t, md)
	if res == nil {
		return false
	}
	res.Release()
	base, err := c.chargedBase(res.Plan, budget)
	if err != nil {
		return false
	}
	budget.charge(c.oracle.CrossKey(&base, bound.Tree))
	out, err := c.oracle.Cross(&base, bound.Tree)
	return err == nil && out.Verdict == oracle.Mismatch
}

// execErrs reports whether the pipeline still fails with an execution error
// (not the row cap): on the base plan when id is 0, else on Plan(q,¬id).
func (c *campaign) execErrs(t *logical.Expr, md *logical.Metadata, id rules.ID, budget *shrinkBudget) bool {
	_, res := c.replan(t, md)
	if res == nil {
		return false
	}
	defer res.Release()
	plan := res.Plan
	if id != 0 {
		var err error
		if plan, err = res.Without(id); err != nil || plan.Cost > maxCost {
			return false
		}
	}
	_, err := c.chargedBase(plan, budget)
	return err != nil && !errors.Is(err, exec.ErrRowLimit)
}
