package rules

import (
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/scalar"
)

// TestDuplicateSubstituteAllocBudget holds applying JoinAssocLeft to
// (nation ⋈ customer) ⋈ orders a second time — bind, substitute, intern — to
// zero allocations: its substitute is in the memo already, and everything it
// is built of (the merged and the split conjunct lists, the And over the
// inner join's two conjuncts, the payload nodes and the bindings) is scratch
// the memo recycles on ReleaseBindings.
func TestDuplicateSubstituteAllocBudget(t *testing.T) {
	md := logical.NewMetadata(catalog.LoadTPCH(catalog.DefaultTPCHConfig()))
	var tabs [3]*logical.Expr
	for i, name := range []string{"nation", "customer", "orders"} {
		tab, err := md.AddTable(name)
		if err != nil {
			t.Fatal(err)
		}
		tabs[i] = tab
	}
	n, c, o := tabs[0], tabs[1], tabs[2]
	col := func(tab *logical.Expr, name string) scalar.Expr {
		for _, id := range tab.Cols {
			if md.Column(id).TableCol == name {
				return scalar.Ref(id)
			}
		}
		t.Fatalf("no column %s", name)
		return nil
	}
	eq := func(l, r scalar.Expr) scalar.Expr { return &scalar.Cmp{Op: scalar.CmpEQ, L: l, R: r} }
	inner := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{n, c},
		On: eq(col(n, "n_nationkey"), col(c, "c_nationkey"))}
	tree := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{inner, o},
		On: &scalar.And{Kids: []scalar.Expr{
			eq(col(c, "c_custkey"), col(o, "o_custkey")),
			&scalar.Cmp{Op: scalar.CmpGT, L: col(o, "o_totalprice"), R: &scalar.Const{D: datum.NewFloat(1000)}},
			eq(col(n, "n_nationkey"), col(o, "o_custkey")),
		}}}
	ctx := &Context{Memo: memo.New(md)}
	m := ctx.Memo
	root := m.Insert(tree)
	e := m.Group(root).Exprs[0]
	rule, err := DefaultRegistry().ByID(2)
	if err != nil {
		t.Fatal(err)
	}
	r := rule.(ExplorationRule)
	apply := func() (added bool) {
		m.ReleaseBindings()
		for _, b := range Bind(m, e, r.Pattern()) {
			for _, sub := range r.Apply(ctx, b) {
				added = m.InsertSubstituteFrom(sub, root, int(r.ID())) || added
			}
		}
		return added
	}
	if !apply() {
		t.Fatal("JoinAssocLeft added nothing")
	}
	if apply() {
		t.Fatal("a second JoinAssocLeft added an expression: its substitute is no duplicate")
	}
	objects := testing.AllocsPerRun(100, func() { apply() })
	t.Logf("%.0f objects per duplicate JoinAssocLeft application", objects)
	if objects != 0 {
		t.Errorf("%.0f objects per duplicate JoinAssocLeft application, budget 0", objects)
	}
}
