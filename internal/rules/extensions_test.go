package rules

import (
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/scalar"
)

func TestRegistryWithExtensionsShape(t *testing.T) {
	reg := RegistryWithExtensions()
	if got := len(reg.Exploration()); got != 34 {
		t.Errorf("exploration rules = %d, want 34", got)
	}
	for _, id := range []ID{31, 32, 33, 34} {
		if _, err := reg.ByID(id); err != nil {
			t.Errorf("extension rule %d missing: %v", id, err)
		}
	}
	// DefaultRegistry must stay at 30: the paper's experiments index the
	// first n exploration rules.
	if got := len(DefaultRegistry().Exploration()); got != 30 {
		t.Errorf("default exploration rules = %d, want 30", got)
	}
}

// buildFKJoinMemo builds Project(customer ⋈ nation ON c_nationkey =
// n_nationkey) projecting customer columns only — the shape rule 31
// eliminates.
func buildFKJoinMemo(t *testing.T) (*memo.Memo, *memo.MExpr) {
	t.Helper()
	md := logical.NewMetadata(catalog.LoadTPCH(catalog.DefaultTPCHConfig()))
	cust, err := md.AddTable("customer")
	if err != nil {
		t.Fatal(err)
	}
	nat, err := md.AddTable("nation")
	if err != nil {
		t.Fatal(err)
	}
	join := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{cust, nat},
		On: &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: cust.Cols[2]}, R: &scalar.ColRef{ID: nat.Cols[0]}}}
	proj := &logical.Expr{Op: logical.OpProject, Children: []*logical.Expr{join},
		Projs: []logical.ProjItem{
			{Out: cust.Cols[1], E: &scalar.ColRef{ID: cust.Cols[1]}},
		}}
	m := memo.New(md)
	root := m.Insert(proj)
	m.SetRoot(root)
	return m, m.Group(root).Exprs[0]
}

func TestEliminateFKJoinFires(t *testing.T) {
	m, e := buildFKJoinMemo(t)
	ctx := &Context{Memo: m}
	reg := RegistryWithExtensions()
	r31, _ := reg.ByID(31)
	binds := Bind(m, e, r31.Pattern())
	if len(binds) == 0 {
		t.Fatal("pattern did not bind")
	}
	subs := r31.(ExplorationRule).Apply(ctx, binds[0])
	if len(subs) != 1 {
		t.Fatalf("expected 1 substitute, got %d", len(subs))
	}
	if subs[0].Node.Op != logical.OpProject {
		t.Errorf("substitute root = %s, want Project", subs[0].Node.Op)
	}
	if !subs[0].Kids[0].IsLeaf() {
		t.Error("substitute child should be the fact group")
	}
}

func TestEliminateFKJoinRefusesNonFK(t *testing.T) {
	// Join on a non-FK column pair must not be eliminated.
	md := logical.NewMetadata(catalog.LoadTPCH(catalog.DefaultTPCHConfig()))
	cust, _ := md.AddTable("customer")
	nat, _ := md.AddTable("nation")
	join := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{cust, nat},
		// c_custkey = n_nationkey: no declared FK.
		On: &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: cust.Cols[0]}, R: &scalar.ColRef{ID: nat.Cols[0]}}}
	proj := &logical.Expr{Op: logical.OpProject, Children: []*logical.Expr{join},
		Projs: []logical.ProjItem{{Out: cust.Cols[1], E: &scalar.ColRef{ID: cust.Cols[1]}}}}
	m := memo.New(md)
	root := m.Insert(proj)
	e := m.Group(root).Exprs[0]
	ctx := &Context{Memo: m}
	reg := RegistryWithExtensions()
	r31, _ := reg.ByID(31)
	for _, b := range Bind(m, e, r31.Pattern()) {
		if subs := r31.(ExplorationRule).Apply(ctx, b); len(subs) != 0 {
			t.Fatal("rule fired without a declared FK")
		}
	}
}

func TestEliminateFKJoinRefusesDimColumns(t *testing.T) {
	// Projection reading dim columns blocks elimination.
	md := logical.NewMetadata(catalog.LoadTPCH(catalog.DefaultTPCHConfig()))
	cust, _ := md.AddTable("customer")
	nat, _ := md.AddTable("nation")
	join := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{cust, nat},
		On: &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: cust.Cols[2]}, R: &scalar.ColRef{ID: nat.Cols[0]}}}
	proj := &logical.Expr{Op: logical.OpProject, Children: []*logical.Expr{join},
		Projs: []logical.ProjItem{{Out: nat.Cols[1], E: &scalar.ColRef{ID: nat.Cols[1]}}}}
	m := memo.New(md)
	root := m.Insert(proj)
	e := m.Group(root).Exprs[0]
	ctx := &Context{Memo: m}
	reg := RegistryWithExtensions()
	r31, _ := reg.ByID(31)
	for _, b := range Bind(m, e, r31.Pattern()) {
		if subs := r31.(ExplorationRule).Apply(ctx, b); len(subs) != 0 {
			t.Fatal("rule fired although the projection reads dim columns")
		}
	}
}

func TestOrExpansionShape(t *testing.T) {
	md := logical.NewMetadata(catalog.LoadTPCH(catalog.DefaultTPCHConfig()))
	nat, _ := md.AddTable("nation")
	f1 := &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: nat.Cols[2]}, R: &scalar.Const{D: datum.NewInt(1)}}
	f2 := &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: nat.Cols[2]}, R: &scalar.Const{D: datum.NewInt(2)}}
	sel := &logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{nat},
		Filter: &scalar.Or{Kids: []scalar.Expr{f1, f2}}}
	m := memo.New(md)
	root := m.Insert(sel)
	e := m.Group(root).Exprs[0]
	ctx := &Context{Memo: m}
	reg := RegistryWithExtensions()
	r33, _ := reg.ByID(33)
	binds := Bind(m, e, r33.Pattern())
	if len(binds) != 1 {
		t.Fatalf("bindings = %d", len(binds))
	}
	subs := r33.(ExplorationRule).Apply(ctx, binds[0])
	if len(subs) != 1 || subs[0].Node.Op != logical.OpUnionAll {
		t.Fatalf("expected a UnionAll substitute, got %v", subs)
	}
	if !m.InsertSubstituteFrom(subs[0], root, 0) {
		t.Error("substitute not inserted")
	}
}

func TestSplitSelect(t *testing.T) {
	md := logical.NewMetadata(catalog.LoadTPCH(catalog.DefaultTPCHConfig()))
	nat, _ := md.AddTable("nation")
	f1 := &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: nat.Cols[0]}, R: &scalar.Const{D: datum.NewInt(1)}}
	f2 := &scalar.Cmp{Op: scalar.CmpLT, L: &scalar.ColRef{ID: nat.Cols[0]}, R: &scalar.Const{D: datum.NewInt(9)}}
	sel := &logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{nat},
		Filter: &scalar.And{Kids: []scalar.Expr{f1, f2}}}
	m := memo.New(md)
	root := m.Insert(sel)
	e := m.Group(root).Exprs[0]
	ctx := &Context{Memo: m}
	reg := RegistryWithExtensions()
	r34, _ := reg.ByID(34)
	subs := r34.(ExplorationRule).Apply(ctx, Bind(m, e, r34.Pattern())[0])
	if len(subs) != 1 || subs[0].Node.Op != logical.OpSelect || subs[0].Kids[0].Node.Op != logical.OpSelect {
		t.Fatalf("expected Select(Select(...)), got %v", subs)
	}
	// Single-conjunct selects must not split.
	sel2 := &logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{nat.Clone()}, Filter: f1}
	root2 := m.Insert(sel2)
	e2 := m.Group(root2).Exprs[0]
	if subs := r34.(ExplorationRule).Apply(ctx, Bind(m, e2, r34.Pattern())[0]); len(subs) != 0 {
		t.Error("single conjunct must not split")
	}
}
