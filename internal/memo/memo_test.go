package memo

import (
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

func newMD(t *testing.T) *logical.Metadata {
	t.Helper()
	return logical.NewMetadata(catalog.LoadTPCH(catalog.DefaultTPCHConfig()))
}

func scan(t *testing.T, md *logical.Metadata, name string) *logical.Expr {
	t.Helper()
	e, err := md.AddTable(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestInsertInternsIdenticalSubtrees(t *testing.T) {
	md := newMD(t)
	r := scan(t, md, "region")
	// Two references to the same Get expression share one group.
	on := scalar.TrueExpr()
	join := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{r, r.Clone()}, On: on}
	m := New(md)
	root := m.Insert(join)
	if m.NumGroups() != 2 {
		t.Errorf("expected 2 groups (get, join), got %d", m.NumGroups())
	}
	e := m.Group(root).Exprs[0]
	if e.Kids[0] != e.Kids[1] {
		t.Error("identical subtrees should intern to the same group")
	}
}

func TestInsertDistinctTablesDistinctGroups(t *testing.T) {
	md := newMD(t)
	r := scan(t, md, "region")
	n := scan(t, md, "nation")
	join := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{r, n}, On: scalar.TrueExpr()}
	m := New(md)
	root := m.Insert(join)
	if m.NumGroups() != 3 {
		t.Errorf("expected 3 groups, got %d", m.NumGroups())
	}
	g := m.Group(root)
	if g.Cols.Len() != 2+3 {
		t.Errorf("join group col set size = %d", g.Cols.Len())
	}
}

func TestInsertSubstituteDedup(t *testing.T) {
	md := newMD(t)
	r := scan(t, md, "region")
	n := scan(t, md, "nation")
	join := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{n, r}, On: scalar.TrueExpr()}
	m := New(md)
	root := m.Insert(join)
	e := m.Group(root).Exprs[0]

	// Commute: Join(r, n) is new.
	sub := NewBound(&logical.Expr{Op: logical.OpJoin, On: scalar.TrueExpr()},
		GroupRef(e.Kids[1]), GroupRef(e.Kids[0]))
	if !m.InsertSubstituteFrom(sub, root, 0) {
		t.Fatal("first substitute should add an expression")
	}
	if len(m.Group(root).Exprs) != 2 {
		t.Fatalf("group should have 2 exprs, got %d", len(m.Group(root).Exprs))
	}
	// Re-inserting the same substitute must be a no-op.
	if m.InsertSubstituteFrom(sub, root, 0) {
		t.Error("duplicate substitute should not add")
	}
	// Re-inserting the original expression must be a no-op too.
	orig := NewBound(&logical.Expr{Op: logical.OpJoin, On: scalar.TrueExpr()},
		GroupRef(e.Kids[0]), GroupRef(e.Kids[1]))
	if m.InsertSubstituteFrom(orig, root, 0) {
		t.Error("original substitute should dedup")
	}
}

func TestInsertSubstituteCreatesInnerGroups(t *testing.T) {
	md := newMD(t)
	n := scan(t, md, "nation")
	m := New(md)
	root := m.Insert(n)
	before := m.NumGroups()

	filter := &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: n.Cols[0]}, R: &scalar.Const{}}
	// Select(Select(get)) as a two-level substitute.
	inner := NewBound(&logical.Expr{Op: logical.OpSelect, Filter: filter}, GroupRef(root))
	outer := NewBound(&logical.Expr{Op: logical.OpSelect, Filter: filter}, inner)
	// Insert into a new group context: we abuse root here — in real use the
	// target group is logically equivalent; for this structural test we
	// just verify group creation mechanics.
	m.InsertSubstituteFrom(outer, root, 0)
	if m.NumGroups() != before+1 {
		t.Errorf("expected exactly one new group for the inner select, got %d new", m.NumGroups()-before)
	}
}

func TestLeafSubstituteRejected(t *testing.T) {
	md := newMD(t)
	n := scan(t, md, "nation")
	m := New(md)
	root := m.Insert(n)
	if m.InsertSubstituteFrom(GroupRef(root), root, 0) {
		t.Error("a pure group reference cannot be inserted as a substitute")
	}
}

func TestExtractFirstRoundTrips(t *testing.T) {
	md := newMD(t)
	r := scan(t, md, "region")
	n := scan(t, md, "nation")
	join := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{n, r}, On: scalar.TrueExpr()}
	sel := &logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{join},
		Filter: &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: n.Cols[0]}, R: &scalar.Const{}}}
	m := New(md)
	root := m.Insert(sel)
	m.SetRoot(root)
	got := m.ExtractFirst(root)
	if exec.Lower(got).Hash() != exec.Lower(sel).Hash() {
		t.Errorf("ExtractFirst differs:\n%s\nvs\n%s", got, sel)
	}
}

func TestGroupColsPerOp(t *testing.T) {
	md := newMD(t)
	n := scan(t, md, "nation")
	agg := md.AddColumn(logical.ColumnMeta{Name: "agg"})
	gb := &logical.Expr{Op: logical.OpGroupBy, Children: []*logical.Expr{n},
		GroupCols: []scalar.ColumnID{n.Cols[2]},
		Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: agg}}}
	m := New(md)
	root := m.Insert(gb)
	cols := m.Group(root).Cols
	if cols.Len() != 2 || !cols.Contains(n.Cols[2]) || !cols.Contains(agg) {
		t.Errorf("groupby group cols wrong: %v", cols.Sorted())
	}
}

// TestForcedCollisionsStayCorrect pins that interning correctness never
// depends on fingerprint quality: with the fingerprint function degraded to a
// constant, every expression lands in one bucket and only the structural
// equality fallback tells them apart. All interning behavior — dedup of
// identical subtrees, distinct groups for distinct payloads, substitute
// dedup — must be unchanged.
func TestForcedCollisionsStayCorrect(t *testing.T) {
	md := newMD(t)
	r := scan(t, md, "region")
	n := scan(t, md, "nation")
	m := New(md)
	m.collideAll = true

	join := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{n, r}, On: scalar.TrueExpr()}
	root := m.Insert(join)
	if m.NumGroups() != 3 || m.NumExprs() != 3 {
		t.Fatalf("got %d groups / %d exprs, want 3 / 3", m.NumGroups(), m.NumExprs())
	}
	// Re-inserting the identical tree finds every level in the single bucket.
	if g := m.Insert(join.Clone()); g != root {
		t.Errorf("re-insert landed in group %d, want %d", g, root)
	}
	if m.NumExprs() != 3 {
		t.Errorf("re-insert added expressions: %d", m.NumExprs())
	}
	// A commuted join is structurally different and must not be conflated
	// with the original despite the identical fingerprint.
	e := m.Group(root).Exprs[0]
	sub := NewBound(&logical.Expr{Op: logical.OpJoin, On: scalar.TrueExpr()},
		GroupRef(e.Kids[1]), GroupRef(e.Kids[0]))
	if !m.InsertSubstituteFrom(sub, root, 0) {
		t.Fatal("commuted substitute should be recognized as new")
	}
	if m.InsertSubstituteFrom(sub, root, 0) {
		t.Error("repeated substitute should dedup inside the collision bucket")
	}
	if got := len(m.Group(root).Exprs); got != 2 {
		t.Errorf("join group has %d exprs, want 2", got)
	}
}

// TestOrdTracksGroupPosition pins the Ord invariant the dirty-queue explorer
// orders its worklist by: Ord is the expression's index within its group.
func TestOrdTracksGroupPosition(t *testing.T) {
	md := newMD(t)
	r := scan(t, md, "region")
	n := scan(t, md, "nation")
	join := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{n, r}, On: scalar.TrueExpr()}
	m := New(md)
	root := m.Insert(join)
	e := m.Group(root).Exprs[0]
	sub := NewBound(&logical.Expr{Op: logical.OpJoin, On: scalar.TrueExpr()},
		GroupRef(e.Kids[1]), GroupRef(e.Kids[0]))
	m.InsertSubstituteFrom(sub, root, 0)
	for _, g := range m.Groups() {
		for i, e := range g.Exprs {
			if e.Ord != i {
				t.Errorf("group %d expr %d has Ord %d", g.ID, i, e.Ord)
			}
			if e.Group != g.ID {
				t.Errorf("group %d expr %d has Group %d", g.ID, i, e.Group)
			}
		}
	}
}

// TestOnAddHookObservesEveryExpr pins the contract the explorer depends on:
// the hook fires exactly once per interned expression, never for dedup hits.
func TestOnAddHookObservesEveryExpr(t *testing.T) {
	md := newMD(t)
	r := scan(t, md, "region")
	n := scan(t, md, "nation")
	m := New(md)
	var seen []*MExpr
	m.SetOnAdd(func(e *MExpr) { seen = append(seen, e) })

	join := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{n, r}, On: scalar.TrueExpr()}
	root := m.Insert(join)
	if len(seen) != 3 {
		t.Fatalf("hook fired %d times for initial insert, want 3", len(seen))
	}
	m.Insert(join.Clone()) // full dedup: no new expressions
	if len(seen) != 3 {
		t.Errorf("hook fired on dedup hit")
	}
	e := m.Group(root).Exprs[0]
	sub := NewBound(&logical.Expr{Op: logical.OpJoin, On: scalar.TrueExpr()},
		GroupRef(e.Kids[1]), GroupRef(e.Kids[0]))
	m.InsertSubstituteFrom(sub, root, 0)
	if len(seen) != 4 {
		t.Fatalf("hook fired %d times after substitute, want 4", len(seen))
	}
	if last := seen[len(seen)-1]; last.Group != root || last.Ord != 1 {
		t.Errorf("hook saw (group %d, ord %d), want (%d, 1)", last.Group, last.Ord, root)
	}
}

func TestBoundExprCols(t *testing.T) {
	md := newMD(t)
	r := scan(t, md, "region")
	n := scan(t, md, "nation")
	m := New(md)
	gr := m.Insert(r)
	gn := m.Insert(n)
	join := NewBound(&logical.Expr{Op: logical.OpJoin, On: scalar.TrueExpr()}, GroupRef(gn), GroupRef(gr))
	cols := m.Cols(join)
	if cols.Len() != 5 {
		t.Errorf("bound join cols = %d, want 5", cols.Len())
	}
	sel := NewBound(&logical.Expr{Op: logical.OpSelect, Filter: scalar.TrueExpr()}, join)
	if m.Cols(sel).Len() != 5 {
		t.Error("bound select cols should pass through")
	}
}
