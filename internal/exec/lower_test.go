package exec

import (
	"reflect"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/core/qgen"
	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/physical"
	"qtrtest/internal/rules"
	"qtrtest/internal/scalar"
)

// canonicalOf is the canonical plan of p, written out here rather than read
// from opPairs: every join algorithm becomes a nested-loops join without
// equi-key lists, every aggregate a hash aggregate, and the rest stays.
func canonicalOf(p *physical.Expr) *physical.Expr {
	kids := make([]*physical.Expr, len(p.Children))
	for i, k := range p.Children {
		kids[i] = canonicalOf(k)
	}
	op := p.Op
	switch op {
	case physical.OpHashJoin, physical.OpMergeJoin:
		op = physical.OpNLJoin
	case physical.OpSortAgg:
		op = physical.OpHashAgg
	}
	return &physical.Expr{
		Op: op, JoinType: p.JoinType, Children: kids,
		Table: p.Table, Cols: p.Cols, Filter: p.Filter, On: p.On, Projs: p.Projs,
		GroupCols: p.GroupCols, Aggs: p.Aggs, OutCols: p.OutCols, InputCols: p.InputCols,
		N: p.N, Keys: p.Keys,
	}
}

// randomTrees draws n logical trees from the fuzz campaign's generator over a
// TPC-H catalog, one derived seed each.
func randomTrees(t *testing.T, n int) []*logical.Expr {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.01, Seed: 1})
	gen, err := qgen.New(opt.New(rules.DefaultRegistry(), cat), qgen.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out []*logical.Expr
	for seed := int64(0); len(out) < n; seed++ {
		tree, err := gen.Fork(seed).RandomTreeWeighted(logical.NewMetadata(cat), 2+int(seed%6), qgen.DefaultWeights())
		if err == nil {
			out = append(out, tree)
		}
	}
	return out
}

// TestLowerDelowerRoundTrip: Lower and delower read one operator table, so
// delowering a plan and lowering it back gives its canonical plan (over the
// conformance and narrow-plan corpora), a lowered tree survives delowering
// (over fuzz-generated trees), and the pattern placeholder OpAny has no plan.
func TestLowerDelowerRoundTrip(t *testing.T) {
	var plans []*physical.Expr
	for _, tc := range conformanceCases() {
		plans = append(plans, tc.plan)
	}
	for _, tc := range narrowPlans() {
		plans = append(plans, tc.plan)
	}
	for _, p := range plans {
		tree, err := delower(p)
		if err != nil {
			t.Fatalf("delower: %v\n%s", err, p)
		}
		if got, want := Lower(tree), canonicalOf(p); got.Hash() != want.Hash() {
			t.Errorf("Lower(delower(p)) is not p's canonical plan:\n%s\nwant:\n%s", got, want)
		}
	}

	n := 300
	if testing.Short() {
		n = 60
	}
	for _, tree := range randomTrees(t, n) {
		plan := Lower(tree)
		back, err := delower(plan)
		if err != nil {
			t.Fatalf("delower(Lower(t)): %v\n%s", err, tree)
		}
		if Lower(back).Hash() != plan.Hash() {
			t.Errorf("delower(Lower(t)) lowers to another plan:\n%s\nwant:\n%s", Lower(back), plan)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("Lower accepted OpAny")
		}
	}()
	Lower(&logical.Expr{Op: logical.OpAny})
}

// TestRootOrderOfLoweredTrees is the ordering contract of a query's lowered
// tree, the order a reference-engine cross-check compares under.
func TestRootOrderOfLoweredTrees(t *testing.T) {
	get := func() *logical.Expr { // t1: a=1, b=2
		return &logical.Expr{Op: logical.OpGet, Table: "t1", Cols: []scalar.ColumnID{1, 2}}
	}
	over := func(parent logical.Expr, child *logical.Expr) *logical.Expr {
		parent.Children = []*logical.Expr{child}
		return &parent
	}
	sortBy := func(keys ...logical.SortKey) logical.Expr { return logical.Expr{Op: logical.OpSort, Keys: keys} }
	limit := logical.Expr{Op: logical.OpLimit, N: 2}
	sel := logical.Expr{Op: logical.OpSelect, Filter: scalar.TrueExpr()}
	project := func(cols ...scalar.ColumnID) logical.Expr { // column c as column c+10
		projs := make([]logical.ProjItem, len(cols))
		for i, c := range cols {
			projs[i] = logical.ProjItem{Out: c + 10, E: &scalar.ColRef{ID: c}}
		}
		return logical.Expr{Op: logical.OpProject, Projs: projs}
	}
	for _, tc := range []struct {
		name string
		tree *logical.Expr
		want PlanOrder
	}{
		{"sort through limit, select and project",
			over(project(2, 1), over(sel, over(limit, over(sortBy(logical.SortKey{Col: 1, Desc: true}, logical.SortKey{Col: 2}), get())))),
			PlanOrder{Sorted: true, Slots: []int{1, 0}, Descs: []bool{true, false}, HasLimit: true}},
		{"limit below the sort",
			over(sortBy(logical.SortKey{Col: 2}), over(limit, get())),
			PlanOrder{Sorted: true, Slots: []int{1}, Descs: []bool{false}, HasLimit: true, LimitBelowSort: true}},
		{"second sort key projected away",
			over(project(1), over(sortBy(logical.SortKey{Col: 1}, logical.SortKey{Col: 2}), get())),
			PlanOrder{Sorted: true, Slots: []int{0}, Descs: []bool{false}}},
		{"first sort key projected away",
			over(project(2), over(sortBy(logical.SortKey{Col: 1}, logical.SortKey{Col: 2}), get())),
			PlanOrder{}},
		{"no sort",
			over(limit, over(sel, get())),
			PlanOrder{HasLimit: true}},
	} {
		if got := RootOrder(Lower(tc.tree)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: RootOrder = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
