package fuzz

import (
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// Synthetic trees with synthetic keep predicates exercise Shrink in
// isolation: no SQL rendering, binding or execution — the campaign-level
// validity of shrunk reproducers is covered by shrunkStillTrips.

func scanNode(cols ...scalar.ColumnID) *logical.Expr {
	return &logical.Expr{Op: logical.OpGet, Table: "t", Cols: cols}
}

func cmpGT(col scalar.ColumnID, v int64) scalar.Expr {
	return &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: col}, R: &scalar.Const{D: datum.NewInt(v)}}
}

// TestShrinkHoistsToMinimalTree: with a keep predicate that only requires a
// GroupBy somewhere in the tree, a four-operator tower must shrink to
// GroupBy over Scan — every wrapper hoisted away, the GroupBy itself kept.
func TestShrinkHoistsToMinimalTree(t *testing.T) {
	tree := &logical.Expr{
		Op:     logical.OpSelect,
		Filter: cmpGT(3, 10),
		Children: []*logical.Expr{{
			Op:        logical.OpGroupBy,
			GroupCols: []scalar.ColumnID{1},
			Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: 3}},
			Children: []*logical.Expr{{
				Op:       logical.OpSelect,
				Filter:   cmpGT(2, 5),
				Children: []*logical.Expr{scanNode(1, 2)},
			}},
		}},
	}
	keep := func(e *logical.Expr) bool { return e.ContainsOp(logical.OpGroupBy) }
	got := Shrink(tree, keep)
	if got.CountOps() != 2 {
		t.Fatalf("shrunk to %d ops, want 2:\n%s", got.CountOps(), got)
	}
	if got.Op != logical.OpGroupBy || got.Children[0].Op != logical.OpGet {
		t.Errorf("shrunk shape is %s over %s, want GroupBy over Scan", got.Op, got.Children[0].Op)
	}
	if tree.CountOps() != 4 {
		t.Errorf("input tree was mutated: now %d ops, want 4", tree.CountOps())
	}
}

// TestShrinkDropsConjuncts: a keep predicate pinned to one conjunct must
// strip the other conjuncts from a Select's filter.
func TestShrinkDropsConjuncts(t *testing.T) {
	needle := cmpGT(2, 7)
	tree := &logical.Expr{
		Op:       logical.OpSelect,
		Filter:   scalar.MakeAnd([]scalar.Expr{cmpGT(1, 1), needle, cmpGT(3, 3)}),
		Children: []*logical.Expr{scanNode(1, 2, 3)},
	}
	keep := func(e *logical.Expr) bool {
		if e.Op != logical.OpSelect {
			return false
		}
		for _, c := range scalar.Conjuncts(e.Filter) {
			if scalar.Equal(c, needle) {
				return true
			}
		}
		return false
	}
	got := Shrink(tree, keep)
	conj := scalar.Conjuncts(got.Filter)
	if len(conj) != 1 || !scalar.Equal(conj[0], needle) {
		t.Errorf("shrunk filter is %s, want exactly the needle conjunct", scalar.SQL(got.Filter, func(id scalar.ColumnID) string { return "c" }))
	}
	if len(scalar.Conjuncts(tree.Filter)) != 3 {
		t.Error("input tree's filter was mutated")
	}
}

// TestShrinkDropsSiblingSubtree: hoisting one side of a join must discard
// the entire other input when keep only needs the surviving side.
func TestShrinkDropsSiblingSubtree(t *testing.T) {
	left := &logical.Expr{
		Op:       logical.OpSelect,
		Filter:   cmpGT(1, 0),
		Children: []*logical.Expr{scanNode(1, 2)},
	}
	right := &logical.Expr{
		Op:       logical.OpSelect,
		Filter:   cmpGT(3, 0),
		Children: []*logical.Expr{scanNode(3, 4)},
	}
	tree := &logical.Expr{
		Op:       logical.OpJoin,
		On:       &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 3}},
		Children: []*logical.Expr{left, right},
	}
	// Keep any tree that still scans the right input's table columns.
	keep := func(e *logical.Expr) bool {
		found := false
		e.Walk(func(n *logical.Expr) {
			if n.Op == logical.OpGet && len(n.Cols) > 0 && n.Cols[0] == 3 {
				found = true
			}
		})
		return found
	}
	got := Shrink(tree, keep)
	if got.Op != logical.OpGet || got.Cols[0] != 3 {
		t.Errorf("shrunk to:\n%s\nwant the bare right-input scan", got)
	}
}

// TestShrinkDeterministic: Shrink's candidate order is fixed and keep is
// pure, so repeated runs on equal inputs give structurally equal outputs.
func TestShrinkDeterministic(t *testing.T) {
	build := func() *logical.Expr {
		return &logical.Expr{
			Op:   logical.OpSort,
			Keys: []logical.SortKey{{Col: 1}, {Col: 2, Desc: true}},
			Children: []*logical.Expr{{
				Op:     logical.OpSelect,
				Filter: scalar.MakeAnd([]scalar.Expr{cmpGT(1, 1), cmpGT(2, 2)}),
				Children: []*logical.Expr{{
					Op:        logical.OpGroupBy,
					GroupCols: []scalar.ColumnID{1, 2},
					Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: 5}},
					Children:  []*logical.Expr{scanNode(1, 2)},
				}},
			}},
		}
	}
	keep := func(e *logical.Expr) bool {
		return e.ContainsOp(logical.OpGroupBy) && e.ContainsOp(logical.OpSelect)
	}
	a := Shrink(build(), keep)
	b := Shrink(build(), keep)
	if exec.Lower(a).Hash() != exec.Lower(b).Hash() {
		t.Errorf("repeated shrink differs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if a.ContainsOp(logical.OpSort) {
		t.Errorf("Sort should have been hoisted away:\n%s", a)
	}
}

// TestShrinkKeepsUnshrinkable: when keep rejects every candidate the input
// comes back unchanged (same node, not a copy).
func TestShrinkKeepsUnshrinkable(t *testing.T) {
	tree := &logical.Expr{
		Op:       logical.OpSelect,
		Filter:   cmpGT(1, 0),
		Children: []*logical.Expr{scanNode(1)},
	}
	orig := exec.Lower(tree).Hash()
	got := Shrink(tree, func(*logical.Expr) bool { return false })
	if got != tree {
		t.Error("unshrinkable tree should be returned as-is")
	}
	if exec.Lower(tree).Hash() != orig {
		t.Error("input tree was mutated")
	}
}
