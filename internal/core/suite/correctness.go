package suite

import (
	"fmt"

	"qtrtest/internal/catalog"
	"qtrtest/internal/core/oracle"
	"qtrtest/internal/opt"
	"qtrtest/internal/par"
)

// Mismatch records one detected correctness bug: a query whose results
// change when a target's rules are disabled.
type Mismatch struct {
	Target Target
	Query  *Query
	Detail string
	// BasePlan and EdgePlan are the rendered Plan(q) and Plan(q,¬R): the
	// plan-level evidence for the bug report, so a reader can see which
	// operator choice diverged without re-running the optimizer.
	BasePlan string
	EdgePlan string
}

// Undetermined flags an edge whose results differ even though the query's
// semantics do not fully determine its output (a LIMIT without a total
// order). Two correct plans may legally disagree on such queries, so they
// are reported separately instead of being counted as correctness bugs.
type Undetermined struct {
	Target Target
	Query  *Query
	Detail string
}

// Report summarizes one execution of a (possibly compressed) test suite.
type Report struct {
	// PlanExecutions counts plans actually executed (shared Plan(q) runs
	// count once; identical disabled-plans are skipped per footnote 1).
	PlanExecutions int
	// SkippedIdentical counts edges whose Plan(q,¬R) was identical to
	// Plan(q) and therefore did not need executing.
	SkippedIdentical int
	// Mismatches are the correctness bugs found (empty for a healthy rule
	// set).
	Mismatches []Mismatch
	// Undetermined lists edges whose result differences are explained by
	// under-determined query semantics rather than a rule bug.
	Undetermined []Undetermined
	// BackendChecks counts distinct base queries replayed on the
	// cross-check backend (SetBackend); zero when the check is off.
	BackendChecks int
	// BackendDisagreements lists base queries whose backend replay did not
	// agree with the primary engine — evidence of a fault the
	// self-differential oracle cannot see.
	BackendDisagreements []BackendDisagreement
}

// BackendDisagreement records one cross-engine divergence: the primary
// engine and the independent backend produced incompatible results (or one
// errored) for the same query.
type BackendDisagreement struct {
	Query  *Query
	Detail string
}

// Run executes the solution's test suite against the database: for every
// distinct query, Plan(q) runs once; for every edge, Plan(q,¬R) runs (unless
// identical to Plan(q)) and its results are compared with the original by
// the order-aware oracle (exec.CompareResults): multiset comparison by
// default, order-sensitive on the sort keys when the plan roots establish an
// ordering, and differences explainable by a LIMIT without a total order are
// flagged as Undetermined rather than reported as bugs.
//
// Plan(q) is the base plan captured at generation time (Query.BasePlan) and
// Plan(q,¬R) comes from the edge cache populated while the compression
// algorithm selected the edge, so for a suite built by Generate and
// compressed by any of the algorithms, Run invokes the optimizer zero times
// — it only executes plans. Base and edge executions each fan out over the
// graph's worker pool; mismatches are reported in assignment order
// regardless of the worker count. The optimizer argument is used only as a
// fallback for graphs whose queries carry no stored base plan (e.g. graphs
// assembled by hand).
func (g *Graph) Run(sol *Solution, o *opt.Optimizer, cat *catalog.Catalog) (*Report, error) {
	rep := &Report{}

	// Distinct queries in first-appearance order.
	var distinct []int
	queryOf := make(map[int]int) // query index -> slot in distinct
	for _, a := range sol.Assignments {
		if _, ok := queryOf[a.Query]; !ok {
			queryOf[a.Query] = len(distinct)
			distinct = append(distinct, a.Query)
		}
	}

	rn, err := oracle.New(g.ox)
	if err != nil {
		return nil, err
	}

	// Phase 1: execute every Plan(q) once, in parallel. With a cross-check
	// backend set, each base is additionally replayed there and compared;
	// outcomes land in index-addressed slots and are merged in distinct
	// order so the report stays byte-identical at any worker count.
	bases := make([]oracle.Base, len(distinct))
	crosses := make([]oracle.Outcome, len(distinct))
	err = par.ForEachErr(g.workers, len(distinct), func(i int) error {
		qi := distinct[i]
		q := g.Queries[qi]
		plan := q.BasePlan
		if plan == nil {
			res, err := o.Optimize(q.Tree, q.MD, opt.Options{})
			if err != nil {
				return fmt.Errorf("suite: planning query %d: %w", qi, err)
			}
			res.Release()
			plan = res.Plan
		}
		base, err := rn.Base(cat, oracle.Prepare(plan))
		if err != nil {
			return fmt.Errorf("suite: executing query %d: %w", qi, err)
		}
		bases[i] = base
		if rn.HasBackend() && q.Tree != nil {
			if crosses[i], err = rn.Cross(&base, oracle.PrepareCross(q.Tree)); err != nil {
				return fmt.Errorf("suite: cross-checking query %d: %w", qi, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.PlanExecutions = len(distinct)
	for i, out := range crosses {
		if !out.Verdict.Compared() {
			// Not asked: no backend, or no tree to replay (caps cannot
			// trip at (0,0)).
			continue
		}
		rep.BackendChecks++
		if out.Verdict == oracle.Mismatch {
			rep.BackendDisagreements = append(rep.BackendDisagreements,
				BackendDisagreement{Query: g.Queries[distinct[i]], Detail: out.Detail})
		}
	}

	// Phase 2: execute every edge's Plan(q,¬R) in parallel, skipping plans
	// identical to the base. Outcomes land in assignment-indexed slots so the
	// report is deterministic.
	edges := make([]oracle.Outcome, len(sol.Assignments))
	err = par.ForEachErr(g.workers, len(sol.Assignments), func(i int) error {
		a := sol.Assignments[i]
		t := g.Targets[a.Target]
		plan := g.EdgePlan(a.Query, t)
		if plan == nil {
			return fmt.Errorf("suite: no plan for query %d with %s disabled", a.Query, t)
		}
		out, err := rn.Edge(&bases[queryOf[a.Query]], oracle.Prepare(plan))
		if err != nil {
			return fmt.Errorf("suite: executing query %d with %s disabled: %w", a.Query, t, err)
		}
		edges[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, out := range edges {
		if out.Verdict == oracle.Identical {
			rep.SkippedIdentical++
			continue
		}
		rep.PlanExecutions++
		a := sol.Assignments[i]
		t, q := g.Targets[a.Target], g.Queries[a.Query]
		switch out.Verdict {
		case oracle.Mismatch:
			rep.Mismatches = append(rep.Mismatches, Mismatch{
				Target: t, Query: q, Detail: out.Detail,
				BasePlan: bases[queryOf[a.Query]].Expr.String(), EdgePlan: g.EdgePlan(a.Query, t).String(),
			})
		case oracle.Undetermined:
			rep.Undetermined = append(rep.Undetermined, Undetermined{Target: t, Query: q, Detail: out.Detail})
		}
	}
	return rep, nil
}
