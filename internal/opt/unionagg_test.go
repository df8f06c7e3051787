package opt_test

import (
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/opt"
	"qtrtest/internal/physical"
	"qtrtest/internal/rules"
)

// unionAggQuery groups a UNION ALL: PushGroupByBelowUnionAll (rule 25) turns
// its COUNT into local counts below the union and a global SUM above it.
const unionAggQuery = "SELECT n, COUNT(*) AS c FROM (SELECT n_name AS n FROM nation UNION ALL SELECT r_name AS n FROM region) AS t GROUP BY n"

// TestPushGroupByBelowUnionAllFiresOnce: rule 25 fires on a union whose
// branches are not grouped yet, and not on its own output, whose branches
// already hold a GroupBy over their grouping columns. Before that
// precondition each firing minted fresh columns for the next, and the query
// above filled the memo to MaxExprs (1 203 expressions in 903 groups). The
// precondition must not take the rule out of any query's RuleSet: over the
// differential corpora and 200 fuzz-drawn trees at each of seeds 1 and 42, as
// many queries hold rule 25 as before it.
func TestPushGroupByBelowUnionAllFiresOnce(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1, Seed: 42})
	reg := rules.DefaultRegistry()
	rule, _ := reg.ByID(25)
	r := rule.(rules.ExplorationRule)
	b, err := bind.BindSQL(unionAggQuery, cat)
	if err != nil {
		t.Fatal(err)
	}

	// Apply the rule by hand: once to the query, then to what it produced.
	m := memo.New(b.MD.CowClone())
	m.SetRoot(m.Insert(b.Tree))
	ctx := &rules.Context{Memo: m}
	apply := func(e *memo.MExpr) []*memo.BoundExpr {
		var subs []*memo.BoundExpr
		for _, bd := range rules.Bind(m, e, r.Pattern()) {
			subs = append(subs, r.Apply(ctx, bd)...)
		}
		return subs
	}
	var target *memo.MExpr
	for _, g := range m.Groups() {
		if e := g.Exprs[0]; e.Op() == logical.OpGroupBy {
			target = e
		}
	}
	if target == nil {
		t.Fatal("no GroupBy in the query's memo")
	}
	subs := apply(target)
	if len(subs) != 1 {
		t.Fatalf("rule 25 on GroupBy(UnionAll) of ungrouped branches: %d substitutes, want 1", len(subs))
	}
	if !m.InsertSubstituteFrom(subs[0], target.Group, 25) {
		t.Fatal("the substitute was not added")
	}
	if subs := apply(m.Group(target.Group).Exprs[1]); len(subs) != 0 {
		t.Errorf("rule 25 on its own global aggregate: %d substitutes, want none", len(subs))
	}

	// The whole optimization.
	o := opt.New(reg, cat)
	res, err := o.Optimize(b.Tree, b.MD, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Memo.NumExprs(); n > 32 {
		t.Errorf("%d memo expressions, budget 32", n)
	}
	if !res.RuleSet.Contains(25) {
		t.Errorf("rule 25 not in RuleSet %v", res.RuleSet.Sorted())
	}
	if p := res.Plan; p.Op != physical.OpHashAgg || p.Children[0].Op != physical.OpConcat {
		t.Errorf("plan is not a hash aggregate over a concat:\n%s", opt.DumpPlan(p))
	}
	res.Release()

	// RuleSet over the corpora: 11 TPC-H and 13 star queries held rule 25
	// when it fed itself.
	for _, d := range []struct {
		db     string
		cat    *catalog.Catalog
		corpus []string
		want   int
	}{
		{"tpch", cat, opt.TPCHCorpus, 11},
		{"star", catalog.LoadStar(catalog.StarConfig{ScaleRows: 1, Seed: 42}), opt.StarCorpus, 13},
	} {
		o := opt.New(reg, d.cat)
		got := 0
		for _, q := range withoutQueries(t, d.cat, d.corpus, 200) {
			res, err := o.Optimize(q.Tree, q.MD, opt.Options{})
			if err != nil {
				continue
			}
			if res.RuleSet.Contains(25) {
				got++
			}
			res.Release()
		}
		if got != d.want {
			t.Errorf("%s: %d queries exercise rule 25, want %d", d.db, got, d.want)
		}
	}
}
