package suite

import (
	"reflect"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/core/oracle"
	"qtrtest/internal/opt"
	"qtrtest/internal/physical"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rules"
)

// planCounts returns what Run must execute for sol without a backend: the
// distinct queries that have an edge whose plan differs from Plan(q), and
// those differing edges. all is the distinct query count, every base a
// backend-less run used to execute.
func planCounts(g *Graph, sol *Solution) (bases, edges, all int) {
	read := make(map[int]bool)
	for _, a := range sol.Assignments {
		q := g.Queries[a.Query]
		differs := g.EdgePlan(a.Query, g.Targets[a.Target]).Hash() != q.BasePlan.Hash()
		if differs {
			edges++
		}
		read[a.Query] = read[a.Query] || differs
	}
	for _, r := range read {
		if r {
			bases++
		}
	}
	return bases, edges, len(read)
}

// TestRunExecutesOnlyReadBases: a Plan(q) whose edges are all identical to
// it runs nowhere. On a fresh result cache every execution is a miss, so the
// misses, PlanExecutions and the count of read bases plus differing edges
// agree, and fall below the count that runs every distinct base.
func TestRunExecutesOnlyReadBases(t *testing.T) {
	g, o, cat := newGraph(t, SingletonTargets(explorationIDs(8)), 3)
	sol, err := g.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	rc := rescache.New(0)
	g.SetCache(rc)
	rep, err := g.Run(sol, o, cat)
	if err != nil {
		t.Fatal(err)
	}
	bases, edges, all := planCounts(g, sol)
	if got := rc.Stats().Misses; got != int64(rep.PlanExecutions) {
		t.Errorf("%d cache misses, %d plan executions reported", got, rep.PlanExecutions)
	}
	if rep.PlanExecutions != bases+edges {
		t.Errorf("%d plan executions, want %d read bases + %d differing edges", rep.PlanExecutions, bases, edges)
	}
	if rep.PlanExecutions >= all+edges {
		t.Errorf("%d plan executions, want fewer than every distinct base plus the edges (%d)", rep.PlanExecutions, all+edges)
	}
	if rep.SkippedIdentical != len(sol.Assignments)-edges {
		t.Errorf("%d skipped, want %d", rep.SkippedIdentical, len(sol.Assignments)-edges)
	}
}

// verdicts is what Run reports about a suite's edges.
type verdicts struct {
	Mismatches   []string
	Undetermined []string
	Skipped      int
}

// referenceRun is the oracle loop Run short-cuts: every distinct base is
// executed, then every edge is compared against it under the same budget.
func referenceRun(t *testing.T, g *Graph, sol *Solution, cat *catalog.Catalog) verdicts {
	t.Helper()
	rn, err := oracle.New(oracle.Options{MaxWork: oracle.WorkBudget})
	if err != nil {
		t.Fatal(err)
	}
	bases := make(map[int]*oracle.Base)
	var v verdicts
	for _, a := range sol.Assignments {
		b, ok := bases[a.Query]
		if !ok {
			base, err := rn.Base(cat, oracle.Prepare(g.Queries[a.Query].BasePlan))
			if err != nil {
				t.Fatalf("base of query %d: %v", a.Query, err)
			}
			b = &base
			bases[a.Query] = b
		}
		tg := g.Targets[a.Target]
		out, err := rn.Edge(b, oracle.Prepare(g.EdgePlan(a.Query, tg)))
		if err != nil {
			t.Fatalf("edge of query %d, target %s: %v", a.Query, tg, err)
		}
		line := tg.String() + " " + g.Queries[a.Query].SQL + ": " + out.Detail
		switch out.Verdict {
		case oracle.Identical:
			v.Skipped++
		case oracle.Mismatch:
			v.Mismatches = append(v.Mismatches, line)
		case oracle.Undetermined:
			v.Undetermined = append(v.Undetermined, line)
		}
	}
	return v
}

// TestRunMatchesEveryBaseReference: under an unsound rule, Run's verdict
// lists and skip count are those of a loop that executes every base.
func TestRunMatchesEveryBaseReference(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	buggy := buggySwapProjectRule()
	o := opt.New(rules.RegistryWith(buggy), cat)
	targets := SingletonTargets(append([]rules.ID{buggy.ID()}, explorationIDs(4)...))
	g, err := Generate(o, targets, GenConfig{K: 3, Seed: 5, ExtraOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []func() (*Solution, error){g.Baseline, g.SetMultiCover, g.TopKIndependent} {
		sol, err := algo()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := g.Run(sol, o, cat)
		if err != nil {
			t.Fatal(err)
		}
		got := verdicts{Skipped: rep.SkippedIdentical}
		for _, m := range rep.Mismatches {
			got.Mismatches = append(got.Mismatches, m.Target.String()+" "+m.Query.SQL+": "+m.Detail)
		}
		for _, u := range rep.Undetermined {
			got.Undetermined = append(got.Undetermined, u.Target.String()+" "+u.Query.SQL+": "+u.Detail)
		}
		want := referenceRun(t, g, sol, cat)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Run reports %+v\nreference loop reports %+v", sol.Name, got, want)
		}
		if sol.Name == "BASELINE" && len(want.Mismatches) == 0 {
			t.Errorf("BASELINE: the unsound rule caused no mismatch, so the comparison shows nothing")
		}
	}
}

// TestRunCapsWithoutFailing: a Plan(q) over the work budget makes each edge
// of its query that differs from it Capped, and an edge over the budget is
// Capped itself; neither fails the run.
func TestRunCapsWithoutFailing(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	o := opt.New(rules.DefaultRegistry(), cat)
	plan := func(sql string) *Query {
		t.Helper()
		b, err := bind.BindSQL(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Optimize(b.Tree, b.MD, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return &Query{SQL: sql, Tree: b.Tree, MD: b.MD, BasePlan: res.Plan, GeneratedFor: -1}
	}
	// About 3.2M joined rows: twice the budget, and far below what a cross
	// product needs to exhaust memory before the budget trips.
	huge := plan("SELECT o1.o_orderkey FROM orders AS o1 JOIN orders AS o2 ON o1.o_custkey <> o2.o_custkey JOIN nation ON n_nationkey <> o1.o_orderkey")
	small := plan("SELECT n_name FROM nation")
	wrap := func(p *physical.Expr) *physical.Expr {
		return &physical.Expr{Op: physical.OpLimit, N: 1 << 40, Children: []*physical.Expr{p}}
	}

	g := &Graph{K: 1, coster: newEdgeCoster(nil)}
	for _, id := range []rules.ID{1, 2} {
		g.Targets = append(g.Targets, Target{Rules: []rules.ID{id}})
	}
	edge := func(q *Query, ti int, p *physical.Expr) Assignment {
		e := g.coster.entry(keyOf(q.Idx, g.Targets[ti]))
		e.once.Do(func() { e.res = edgeResult{plan: p} })
		return Assignment{Target: ti, Query: q.Idx}
	}
	for i, q := range []*Query{huge, small} {
		q.Idx = i
		g.Queries = append(g.Queries, q)
	}
	sol := &Solution{Assignments: []Assignment{
		edge(huge, 0, wrap(huge.BasePlan)), // differs from a capped base
		edge(huge, 1, huge.BasePlan),       // identical to it
		edge(small, 0, huge.BasePlan),      // over the budget itself
		edge(small, 1, wrap(small.BasePlan)),
	}}
	rep, err := g.Run(sol, o, cat)
	if err != nil {
		t.Fatalf("a budget trip failed the run: %v", err)
	}
	if rep.Capped != 2 || rep.SkippedIdentical != 1 || len(rep.Mismatches) != 0 {
		t.Errorf("capped %d, skipped %d, mismatches %d; want 2, 1, 0", rep.Capped, rep.SkippedIdentical, len(rep.Mismatches))
	}
	// Both bases ran (the huge one until the budget stopped it), and the two
	// edges of the small query; the capped base's edge did not run.
	if rep.PlanExecutions != 4 {
		t.Errorf("%d plan executions, want 4", rep.PlanExecutions)
	}
}
