package suite

import (
	"errors"
	"fmt"

	"qtrtest/internal/catalog"
	"qtrtest/internal/core/oracle"
	"qtrtest/internal/exec"
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
	// PlanExecutions counts the plans that ran: each Plan(q) an edge or the
	// backend read (once per distinct query), plus each edge's Plan(q,¬R)
	// that differs from its Plan(q) and whose Plan(q) stayed within the work
	// budget. An identical plan is skipped per footnote 1, and a Plan(q)
	// that only identical edges read is never run.
	PlanExecutions int
	// SkippedIdentical counts edges whose Plan(q,¬R) was identical to
	// Plan(q) and therefore did not need executing.
	SkippedIdentical int
	// Capped counts edges left uncompared because an execution went over
	// oracle.WorkBudget: the edge's own plan, or its query's Plan(q), which
	// caps every non-identical edge of that query.
	Capped int
	// Mismatches are the correctness bugs found (empty for a healthy rule
	// set).
	Mismatches []Mismatch
	// Undetermined lists edges whose result differences are explained by
	// under-determined query semantics rather than a rule bug.
	Undetermined []Undetermined
	// BackendChecks counts distinct base queries replayed on the
	// cross-check backend (SetBackend) and compared; zero when the check is
	// off. A base or a replay over the work budget compares nothing.
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
// edge, Plan(q,¬R) runs (unless identical to Plan(q)) and its results are
// compared with Plan(q)'s by the order-aware oracle (exec.CompareResults):
// multiset comparison by default, order-sensitive on the sort keys when the
// plan roots establish an ordering, and differences explainable by a LIMIT
// without a total order are flagged as Undetermined rather than reported as
// bugs. Plan(q) runs once per distinct query, and only when some edge of
// that query reads its result — an edge whose plan differs — or when the
// cross-check backend replays the query.
//
// Every execution runs under oracle.WorkBudget. A base over it makes each
// non-identical edge of its query Capped, an edge over it is Capped itself,
// and neither aborts the run.
//
// Plan(q) is the base plan captured at generation time (Query.BasePlan) and
// Plan(q,¬R) comes from the edge cache populated while the compression
// algorithm selected the edge, so for a suite built by Generate and
// compressed by any of the algorithms, Run invokes the optimizer zero times
// — it only executes plans. Every phase fans out over the graph's worker
// pool; mismatches are reported in assignment order regardless of the
// worker count. The optimizer argument is used only as a fallback for
// graphs whose queries carry no stored base plan (e.g. graphs assembled by
// hand).
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

	ox := g.ox
	ox.MaxWork = oracle.WorkBudget
	rn, err := oracle.New(ox)
	if err != nil {
		return nil, err
	}

	// Phase 0: prepare every Plan(q) and every edge's Plan(q,¬R), in
	// parallel, before anything executes: slots below len(distinct) are
	// bases, the rest edges in assignment order.
	bases := make([]oracle.Base, len(distinct))
	edgePlans := make([]oracle.Plan, len(sol.Assignments))
	err = par.ForEachErr(g.workers, len(distinct)+len(sol.Assignments), func(i int) error {
		if i < len(distinct) {
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
			bases[i].Plan = oracle.Prepare(plan)
			return nil
		}
		i -= len(distinct)
		a := sol.Assignments[i]
		t := g.Targets[a.Target]
		plan := g.EdgePlan(a.Query, t)
		if plan == nil {
			return fmt.Errorf("suite: no plan for query %d with %s disabled", a.Query, t)
		}
		edgePlans[i] = oracle.Prepare(plan)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A base runs when an edge of its query differs from it (the same Hash
	// test Runner.Edge applies first) or the backend replays it.
	var run []int
	needed := make([]bool, len(distinct))
	for i, a := range sol.Assignments {
		b := queryOf[a.Query]
		if !needed[b] && (rn.HasBackend() || edgePlans[i].Hash != bases[b].Hash) {
			needed[b] = true
			run = append(run, b)
		}
	}

	// Phase 1: execute every needed Plan(q) once, in parallel. With a
	// cross-check backend set, each base is additionally replayed there and
	// compared; outcomes land in index-addressed slots and are merged in
	// distinct order so the report stays byte-identical at any worker count.
	capped := make([]bool, len(distinct))
	crosses := make([]oracle.Outcome, len(distinct))
	err = par.ForEachErr(g.workers, len(run), func(j int) error {
		i := run[j]
		qi := distinct[i]
		base, err := rn.Base(cat, bases[i].Plan)
		if errors.Is(err, exec.ErrRowLimit) {
			capped[i] = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("suite: executing query %d: %w", qi, err)
		}
		bases[i] = base
		if q := g.Queries[qi]; rn.HasBackend() && q.Tree != nil {
			if crosses[i], err = rn.Cross(&base, oracle.PrepareCross(q.Tree)); err != nil {
				return fmt.Errorf("suite: cross-checking query %d: %w", qi, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.PlanExecutions = len(run)
	for i, out := range crosses {
		if !out.Verdict.Compared() {
			// Not asked (no backend, or no tree to replay), a capped base,
			// or a capped replay.
			continue
		}
		rep.BackendChecks++
		if out.Verdict == oracle.Mismatch {
			rep.BackendDisagreements = append(rep.BackendDisagreements,
				BackendDisagreement{Query: g.Queries[distinct[i]], Detail: out.Detail})
		}
	}

	// Phase 2: execute every edge's prepared Plan(q,¬R) in parallel,
	// skipping plans identical to the base. Outcomes land in
	// assignment-indexed slots so the report is deterministic.
	edges := make([]oracle.Outcome, len(sol.Assignments))
	err = par.ForEachErr(g.workers, len(sol.Assignments), func(i int) error {
		a := sol.Assignments[i]
		b := queryOf[a.Query]
		if capped[b] && edgePlans[i].Hash != bases[b].Hash {
			edges[i] = oracle.Outcome{Verdict: oracle.Capped}
			return nil
		}
		out, err := rn.Edge(&bases[b], edgePlans[i])
		if err != nil {
			return fmt.Errorf("suite: executing query %d with %s disabled: %w", a.Query, g.Targets[a.Target], err)
		}
		edges[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, out := range edges {
		a := sol.Assignments[i]
		b := queryOf[a.Query]
		if out.Verdict == oracle.Identical {
			rep.SkippedIdentical++
			continue
		}
		if !capped[b] {
			rep.PlanExecutions++
		}
		t, q := g.Targets[a.Target], g.Queries[a.Query]
		switch out.Verdict {
		case oracle.Capped:
			rep.Capped++
		case oracle.Mismatch:
			rep.Mismatches = append(rep.Mismatches, Mismatch{
				Target: t, Query: q, Detail: out.Detail,
				BasePlan: bases[b].Expr.String(), EdgePlan: edgePlans[i].Expr.String(),
			})
		case oracle.Undetermined:
			rep.Undetermined = append(rep.Undetermined, Undetermined{Target: t, Query: q, Detail: out.Detail})
		}
	}
	return rep, nil
}
