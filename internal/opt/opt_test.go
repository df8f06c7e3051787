package opt

import (
	"errors"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/rules"
)

func harness(t *testing.T) (*Optimizer, *catalog.Catalog) {
	t.Helper()
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	return New(rules.DefaultRegistry(), cat), cat
}

func optimize(t *testing.T, o *Optimizer, q string, opts Options) *Result {
	t.Helper()
	bound, err := bind.BindSQL(q, o.Catalog())
	if err != nil {
		t.Fatalf("bind %q: %v", q, err)
	}
	res, err := o.Optimize(bound.Tree, bound.MD, opts)
	if err != nil {
		t.Fatalf("optimize %q: %v", q, err)
	}
	return res
}

func TestFilterPushdownChosen(t *testing.T) {
	o, _ := harness(t)
	q := "SELECT * FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE l_quantity = 1"
	res := optimize(t, o, q, Options{})
	// The chosen plan must have the filter below the join, not above.
	var sawJoin bool
	var filterAboveJoin bool
	var walk func(p *physical.Expr, aboveJoin bool)
	walk = func(p *physical.Expr, aboveJoin bool) {
		switch p.Op {
		case physical.OpHashJoin, physical.OpMergeJoin, physical.OpNLJoin:
			sawJoin = true
			aboveJoin = false // entering children: below the join now
			for _, c := range p.Children {
				walk(c, aboveJoin)
			}
			return
		case physical.OpFilter:
			if aboveJoin {
				filterAboveJoin = true
			}
		}
		for _, c := range p.Children {
			walk(c, aboveJoin)
		}
	}
	walk(res.Plan, true)
	if !sawJoin {
		t.Fatalf("no join in plan:\n%s", res.Plan)
	}
	if filterAboveJoin {
		t.Errorf("filter not pushed below join:\n%s", res.Plan)
	}
	// Disabling the pushdown rules must not lower the cost.
	res2 := optimize(t, o, q, Options{Disabled: rules.NewSet(5, 6, 7)})
	if res2.Cost < res.Cost {
		t.Errorf("disabling pushdown reduced cost: %f < %f", res2.Cost, res.Cost)
	}
}

func TestDisableMonotonicityProperty(t *testing.T) {
	// For a well-behaved optimizer, Cost(q) <= Cost(q, ¬R) — the invariant
	// TopKIndependent's cut-off relies on (§5.3.1). Check over all
	// singleton exploration-rule disablings for a few queries.
	o, _ := harness(t)
	queries := []string{
		"SELECT c_name FROM customer JOIN nation ON c_nationkey = n_nationkey WHERE n_name = 'FRANCE'",
		"SELECT l_suppkey, COUNT(*) AS c FROM lineitem GROUP BY l_suppkey",
		"SELECT o_orderkey FROM orders WHERE EXISTS (SELECT 1 AS one FROM lineitem WHERE l_orderkey = o_orderkey)",
	}
	for _, q := range queries {
		base := optimize(t, o, q, Options{})
		for _, r := range rules.ExplorationRules() {
			res := optimize(t, o, q, Options{Disabled: rules.NewSet(r.ID())})
			if res.Cost < base.Cost-1e-9 {
				t.Errorf("disabling rule %d lowered cost for %q: %f < %f", r.ID(), q, res.Cost, base.Cost)
			}
		}
	}
}

func TestNoPlanWhenImplementationDisabled(t *testing.T) {
	o, _ := harness(t)
	bound, err := bind.BindSQL("SELECT n_name FROM nation", o.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	_, err = o.Optimize(bound.Tree, bound.MD, Options{Disabled: rules.NewSet(101)}) // GetToScan
	if !errors.Is(err, ErrNoPlan) {
		t.Errorf("expected ErrNoPlan, got %v", err)
	}
}

func TestDisableBothJoinImpls(t *testing.T) {
	o, _ := harness(t)
	q := "SELECT * FROM nation JOIN region ON n_regionkey = r_regionkey"
	// Disable hash and merge join: nested loops must carry the query.
	res := optimize(t, o, q, Options{Disabled: rules.NewSet(104, 106)})
	found := false
	var walk func(p *physical.Expr)
	walk = func(p *physical.Expr) {
		if p.Op == physical.OpNLJoin {
			found = true
		}
		for _, c := range p.Children {
			walk(c)
		}
	}
	walk(res.Plan)
	if !found {
		t.Errorf("expected NL join:\n%s", res.Plan)
	}
	bound, _ := bind.BindSQL(q, o.Catalog())
	if _, err := o.Optimize(bound.Tree, bound.MD, Options{Disabled: rules.NewSet(104, 105, 106)}); !errors.Is(err, ErrNoPlan) {
		t.Errorf("no join implementation left: expected ErrNoPlan, got %v", err)
	}
}

func TestRuleSetIncludesImplementationRules(t *testing.T) {
	o, _ := harness(t)
	res := optimize(t, o, "SELECT * FROM nation JOIN region ON n_regionkey = r_regionkey", Options{})
	for _, id := range []rules.ID{101, 104, 105, 106} {
		if !res.RuleSet.Contains(id) {
			t.Errorf("RuleSet missing implementation rule %d", id)
		}
	}
	if res.RuleSet.Contains(113) {
		t.Error("RuleSet should not contain the aggregation rule for a join query")
	}
}

func TestDisabledRulesNeverReported(t *testing.T) {
	o, _ := harness(t)
	q := "SELECT * FROM (SELECT * FROM nation JOIN region ON n_regionkey = r_regionkey) AS t WHERE n_nationkey > 1"
	base := optimize(t, o, q, Options{})
	for _, id := range base.RuleSet.Sorted() {
		if id > 100 {
			continue
		}
		res := optimize(t, o, q, Options{Disabled: rules.NewSet(id)})
		if res.RuleSet.Contains(id) {
			t.Errorf("disabled rule %d still reported as exercised", id)
		}
	}
}

func TestPlanAnnotations(t *testing.T) {
	o, _ := harness(t)
	res := optimize(t, o, "SELECT c_name FROM customer WHERE c_acctbal > 0", Options{})
	var walk func(p *physical.Expr)
	walk = func(p *physical.Expr) {
		if p.Cost <= 0 {
			t.Errorf("%s has nonpositive cost %f", p.Op, p.Cost)
		}
		if p.Rows < 0 {
			t.Errorf("%s has negative row estimate", p.Op)
		}
		for _, c := range p.Children {
			if c.Cost > p.Cost {
				t.Errorf("child cost %f exceeds parent cumulative cost %f", c.Cost, p.Cost)
			}
			walk(c)
		}
	}
	walk(res.Plan)
}

func TestDeterministicOptimization(t *testing.T) {
	o, _ := harness(t)
	q := "SELECT s_name FROM supplier JOIN nation ON s_nationkey = n_nationkey WHERE n_name <> 'PERU'"
	a := optimize(t, o, q, Options{})
	b := optimize(t, o, q, Options{})
	if a.Plan.Hash() != b.Plan.Hash() {
		t.Error("optimization must be deterministic")
	}
	if a.Cost != b.Cost {
		t.Error("costs must be deterministic")
	}
}

func TestMemoGrowthBounded(t *testing.T) {
	o, _ := harness(t)
	// A 5-way join chain: exploration must stay within limits and succeed.
	q := `SELECT * FROM lineitem
		JOIN orders ON l_orderkey = o_orderkey
		JOIN customer ON o_custkey = c_custkey
		JOIN nation ON c_nationkey = n_nationkey
		JOIN region ON n_regionkey = r_regionkey`
	bound, err := bind.BindSQL(q, o.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Optimize(bound.Tree, bound.MD, Options{MaxExprs: 500, MaxPasses: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Memo.NumExprs() > 600 {
		t.Errorf("memo exceeded its cap: %d exprs", res.Memo.NumExprs())
	}
	rows, err := exec.Run(res.Plan, o.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	_ = rows
}

func TestNilTree(t *testing.T) {
	o, _ := harness(t)
	if _, err := o.Optimize(nil, logical.NewMetadata(o.Catalog()), Options{}); err == nil {
		t.Error("nil tree must error")
	}
}
