package opt

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/physical"
	"qtrtest/internal/rules"
	"qtrtest/internal/scalar"
)

// goldenCase is one Optimize call of the golden workloads: a corpus query,
// optimized with nothing disabled or with one exercised exploration rule
// disabled — the Plan(q) / Plan(q,¬R) calls collectDifferential pins.
type goldenCase struct {
	db       string
	query    string
	bound    *bind.Bound
	disabled rules.Set
}

type goldenDB struct {
	o     *Optimizer
	cases []goldenCase
}

// goldenWorkloads enumerates the cases per database, each database with one
// shared Optimizer.
func goldenWorkloads(t *testing.T) []goldenDB {
	t.Helper()
	var out []goldenDB
	add := func(db string, cat *catalog.Catalog, corpus []string) {
		g := goldenDB{o: New(rules.DefaultRegistry(), cat)}
		for _, q := range corpus {
			bound, err := bind.BindSQL(q, cat)
			if err != nil {
				t.Fatalf("bind %q: %v", q, err)
			}
			g.cases = append(g.cases, goldenCase{db: db, query: q, bound: bound})
			base, err := g.o.Optimize(bound.Tree, bound.MD, Options{})
			if err != nil {
				t.Fatalf("optimize %q: %v", q, err)
			}
			for _, id := range base.RuleSet.Sorted() {
				if id <= 100 {
					g.cases = append(g.cases, goldenCase{db: db, query: q, bound: bound, disabled: rules.NewSet(id)})
				}
			}
		}
		out = append(out, g)
	}
	add("tpch", catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1.0, Seed: 42}), tpchCorpus)
	add("star", catalog.LoadStar(catalog.StarConfig{ScaleRows: 1.0, Seed: 42}), starCorpus)
	return out
}

func (c goldenCase) String() string {
	return fmt.Sprintf("%s %q disabled %v", c.db, c.query, c.disabled.Sorted())
}

// dumpPlan renders every field of every node, annotations included, reading
// the fields themselves: unlike Hash it memoizes nothing, so a dump taken
// later shows whatever was written to the plan in between.
func dumpPlan(e *physical.Expr) string {
	var sb strings.Builder
	var walk func(x *physical.Expr, depth int)
	walk = func(x *physical.Expr, depth int) {
		fmt.Fprintf(&sb, "%*s%d/%d table=%q cols=%v", 2*depth, "", x.Op, x.JoinType, x.Table, x.Cols)
		if x.Filter != nil {
			fmt.Fprintf(&sb, " filter=%s", x.Filter.Hash())
		}
		if x.On != nil {
			fmt.Fprintf(&sb, " on=%s", x.On.Hash())
		}
		fmt.Fprintf(&sb, " equi=%v/%v group=%v out=%v in=%v n=%d keys=%v", x.EquiLeft, x.EquiRight, x.GroupCols, x.OutCols, x.InputCols, x.N, x.Keys)
		for _, p := range x.Projs {
			fmt.Fprintf(&sb, " %d=%s", p.Out, p.E.Hash())
		}
		for _, a := range x.Aggs {
			fmt.Fprintf(&sb, " %s", a.Hash())
		}
		fmt.Fprintf(&sb, " rows=%v cost=%v\n", x.Rows, x.Cost)
		for _, c := range x.Children {
			walk(c, depth+1)
		}
	}
	walk(e, 0)
	return sb.String()
}

// Poison: what a released candidate is overwritten with. Every field gets a
// value no rule produces, Children the sentinel slice, and the annotations
// values that would win (Cost) or wreck (Rows) any costing they leaked into.
const poisonOp physical.Op = 0x7ead

var (
	poisonKids   = []*physical.Expr{nil}
	poisonScalar = &scalar.Const{D: datum.NewString("POISON")}
	poisonIDs    = []scalar.ColumnID{-7}
)

func poisonCandidate(e *physical.Expr) {
	*e = physical.Expr{
		Op: poisonOp, JoinType: 0x7ead, Children: poisonKids,
		Table: "POISON", Cols: poisonIDs, Filter: poisonScalar, On: poisonScalar,
		EquiLeft: poisonIDs, EquiRight: poisonIDs,
		Projs:     []logical.ProjItem{{Out: -7, E: poisonScalar}},
		GroupCols: poisonIDs, Aggs: []scalar.Agg{{Op: scalar.AggMax, Arg: poisonScalar, Out: -7}},
		OutCols: poisonIDs, InputCols: [][]scalar.ColumnID{poisonIDs}, N: -7,
		Keys: []logical.SortKey{{Col: -7, Desc: true}},
		Rows: math.NaN(), Cost: math.Inf(-1),
	}
}

// poisonScratch overwrites everything a scratch has handed out, on its way
// back to the pool: the memo's storage (memo.Poison), the explorer's parents
// index, worklists and round, the stats cache, stats and slab, and the implementor's
// tables. The candidates on the rule context's free list were poisoned as they
// were released (Options.onRelease). An optimization that runs in this scratch
// next, or a Result that still points into it, reads poison.
func poisonScratch(s *scratch) {
	s.memo.Poison()
	expr := &memo.MExpr{Group: -7, Ord: -7, Queued: 0xff}
	for _, p := range s.ex.parents {
		for i := range p {
			p[i] = expr
		}
	}
	for _, list := range [][]*memo.MExpr{s.ex.cur[:cap(s.ex.cur)], s.ex.next[:cap(s.ex.next)], s.imp.winner} {
		for i := range list {
			list[i] = expr
		}
	}
	s.ex.processing = expr
	s.ex.round = -7
	for i := range s.tab.bits {
		s.tab.bits[i] = ^uint64(0)
	}
	s.tab.pairs = append(s.tab.pairs[:0], [2]rules.ID{-7, -7})
	used := s.sb.slabs[:len(s.sb.slabs)-len(s.sb.slab)]
	for i := range used {
		used[i] = math.NaN()
	}
	stats := groupStats{rows: math.NaN(), cols: scalar.NewColSet(127, 128), distinct: []float64{math.NaN()}}
	for i := range s.sb.sts {
		s.sb.sts[i] = stats
	}
	for i := range s.sb.cache {
		s.sb.cache[i] = &stats
	}
	cand := new(physical.Expr)
	poisonCandidate(cand)
	for i := range s.imp.best {
		s.imp.best[i], s.imp.done[i], s.imp.visiting[i], s.imp.wonBy[i] = cand, true, true, -7
	}
}

// planIsClean reports whether the plan is a finite tree none of whose nodes is
// a released candidate: one on the free list still carries the poison, since
// only reuse overwrites it, and one reused while still part of a plan shows as
// a node that is its own descendant.
func planIsClean(t *testing.T, c goldenCase, e *physical.Expr, depth int) bool {
	t.Helper()
	switch {
	case e == nil:
		t.Errorf("%s: nil node in plan", c)
		return false
	case depth > 64:
		t.Errorf("%s: plan is deeper than any query here allows: a node was reused inside its own plan", c)
		return false
	case e.Op == poisonOp || (len(e.Children) == 1 && &e.Children[0] == &poisonKids[0]) || e.Table == "POISON" || math.IsNaN(e.Rows):
		t.Errorf("%s: plan contains a released candidate", c)
		return false
	}
	for _, k := range e.Children {
		if !planIsClean(t, c, k, depth+1) {
			return false
		}
	}
	return true
}

// TestRecycledCandidatesAreInvisible is the candidate free list's hygiene
// guard, in the style of exec's TestPoolPoisonIsInvisible: with every losing
// candidate poisoned as it is released, the golden workloads' plans (every
// field), hashes, costs and RuleSets must equal the unpoisoned run's, no node
// of a returned plan may be a released one, and plans returned earlier — a
// campaign keeps BasePlan and every edge plan alive — must read the same
// after all later optimizations as when they were returned. Several
// goroutines share each Optimizer, so under -race this also shows the free
// list is per call.
func TestRecycledCandidatesAreInvisible(t *testing.T) {
	type outcome struct {
		dump, hash string
		cost       float64
		ruleSet    []rules.ID
	}
	dbs := goldenWorkloads(t)
	var want [][]outcome
	for _, g := range dbs {
		var w []outcome
		for _, c := range g.cases {
			res, err := g.o.Optimize(c.bound.Tree, c.bound.MD, Options{Disabled: c.disabled})
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			if !planIsClean(t, c, res.Plan, 0) {
				t.FailNow()
			}
			w = append(w, outcome{dumpPlan(res.Plan), res.Plan.Hash(), res.Cost, res.RuleSet.Sorted()})
		}
		want = append(want, w)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			released := 0
			opts := Options{onRelease: func(e *physical.Expr) {
				released++
				poisonCandidate(e)
			}}
			type kept struct {
				c    goldenCase
				plan *physical.Expr
				dump string
			}
			var keep []kept
			for di, db := range dbs {
				for ci, c := range db.cases {
					opts.Disabled = c.disabled
					res, err := db.o.Optimize(c.bound.Tree, c.bound.MD, opts)
					if err != nil {
						t.Errorf("%s: %v", c, err)
						return
					}
					if !planIsClean(t, c, res.Plan, 0) {
						return
					}
					w := want[di][ci]
					got := outcome{dumpPlan(res.Plan), res.Plan.Hash(), res.Cost, res.RuleSet.Sorted()}
					if got.dump != w.dump || got.hash != w.hash || got.cost != w.cost || fmt.Sprint(got.ruleSet) != fmt.Sprint(w.ruleSet) {
						t.Errorf("%s: poisoned run diverged:\n got cost %v rules %v\n%s\nwant cost %v rules %v\n%s",
							c, got.cost, got.ruleSet, got.dump, w.cost, w.ruleSet, w.dump)
					}
					keep = append(keep, kept{c, res.Plan, got.dump})
				}
			}
			if released == 0 {
				t.Error("no candidate was ever released: the test poisoned nothing")
			}
			for _, k := range keep {
				if now := dumpPlan(k.plan); now != k.dump {
					t.Errorf("%s: plan changed after it was returned:\n now\n%s\nthen\n%s", k.c, now, k.dump)
				}
			}
		}()
	}
	wg.Wait()
}

// memoSnapshot renders what a caller can read from a finished memo: groups,
// expressions, kids, payload fingerprints, provenance and column sets.
func memoSnapshot(m *memo.Memo) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "root=%d groups=%d exprs=%d\n", m.Root, m.NumGroups(), m.NumExprs())
	for _, g := range m.Groups() {
		fmt.Fprintf(&sb, "G%d cols=%v\n", g.ID, g.Cols.Sorted())
		for i, e := range g.Exprs {
			fmt.Fprintf(&sb, "  %d/%d %s kids=%v by=%d group=%d %s\n", i, e.Ord, e.Op(), e.Kids, e.CreatedBy, e.Group, e.Node.PayloadHash())
		}
	}
	return sb.String()
}

// TestResultOutlivesLaterOptimizations pins that a Result owns what it points
// at: the memo's chunked storage and the plan's nodes are per call, never
// pooled across calls, so a held Result.Memo and Result.Plan read the same
// after a hundred further optimizations on the same Optimizer.
func TestResultOutlivesLaterOptimizations(t *testing.T) {
	dbs := goldenWorkloads(t)
	type held struct {
		c          goldenCase
		res        *Result
		memo, plan string
	}
	var holds []held
	for _, db := range dbs {
		for _, c := range db.cases[:3] {
			res, err := db.o.Optimize(c.bound.Tree, c.bound.MD, Options{Disabled: c.disabled})
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			holds = append(holds, held{c, res, memoSnapshot(res.Memo), dumpPlan(res.Plan)})
		}
	}
	for n := 0; n < 100; {
		for _, db := range dbs {
			for _, c := range db.cases {
				if _, err := db.o.Optimize(c.bound.Tree, c.bound.MD, Options{Disabled: c.disabled}); err != nil {
					t.Fatalf("%s: %v", c, err)
				}
				n++
			}
		}
	}
	for _, h := range holds {
		if now := memoSnapshot(h.res.Memo); now != h.memo {
			t.Errorf("%s: held memo changed:\n now\n%s\nthen\n%s", h.c, now, h.memo)
		}
		if now := dumpPlan(h.res.Plan); now != h.plan {
			t.Errorf("%s: held plan changed:\n now\n%s\nthen\n%s", h.c, now, h.plan)
		}
	}
}

// TestGroupColSetsStayPristine: group column sets are shared between groups
// (a Select's is its input's) and handed to rules by value, so they are
// read-only by contract. After the golden workloads are explored and costed,
// every Group.Cols must still equal the set computed afresh from the group's
// first expression — no rule extended a shared set through Expr.Cols(&set).
// Every result is released, so all but a database's first case run in a memo
// that was Reset: a set must not survive into the groups of the next query.
func TestGroupColSetsStayPristine(t *testing.T) {
	for _, db := range goldenWorkloads(t) {
		for _, c := range db.cases {
			res, err := db.o.Optimize(c.bound.Tree, c.bound.MD, Options{Disabled: c.disabled})
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			m := res.Memo
			for _, g := range m.Groups() {
				e := g.Exprs[0]
				kids := make([]*memo.BoundExpr, len(e.Kids))
				for i, k := range e.Kids {
					kids[i] = memo.GroupRef(k)
				}
				// Cols of a bound expression recomputes payload-defined sets
				// and re-unions a join's inputs; pass-through operators read
				// the input group, which this loop checks in its own turn.
				fresh := m.Cols(memo.NewBound(e.Node, kids...))
				if !g.Cols.Equals(fresh) {
					t.Errorf("%s: G%d cols %v, recomputed %v", c, g.ID, g.Cols.Sorted(), fresh.Sorted())
				}
			}
			res.Release()
		}
	}
}
