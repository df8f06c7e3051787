package memo

import (
	"slices"
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// eachHashing runs the test once with the real interning fingerprint and once
// with every expression forced into one bucket.
func eachHashing(t *testing.T, test func(t *testing.T, newMemo func(*logical.Metadata) *Memo)) {
	for _, collide := range []bool{false, true} {
		name := "fingerprint"
		if collide {
			name = "collideAll"
		}
		t.Run(name, func(t *testing.T) {
			test(t, func(md *logical.Metadata) *Memo {
				m := New(md)
				m.collideAll = collide
				return m
			})
		})
	}
}

// gt is the predicate col > v: a distinct payload per v.
func gt(col scalar.ColumnID, v int64) scalar.Expr {
	return &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: col}, R: &scalar.Const{D: datum.NewInt(v)}}
}

// checkFreeList fails if the node free list does not hold exactly want
// distinct nodes, or holds one that an expression or the caller still uses.
func checkFreeList(t *testing.T, m *Memo, want int, inUse ...*logical.Expr) {
	t.Helper()
	if len(m.freeNodes) != want {
		t.Errorf("free list holds %d nodes, want %d", len(m.freeNodes), want)
	}
	seen := make(map[*logical.Expr]bool)
	for _, n := range m.freeNodes {
		if seen[n] {
			t.Errorf("node %p is on the free list twice", n)
		}
		seen[n] = true
	}
	for _, g := range m.groups {
		for _, e := range g.Exprs {
			if seen[e.Node] {
				t.Errorf("G%d/%d: the expression's payload node is on the free list", g.ID, e.Ord)
			}
		}
	}
	for _, n := range inUse {
		if seen[n] {
			t.Errorf("node %p reached the free list but is not the memo's to recycle", n)
		}
	}
}

// TestInternedAwaySubstituteFreesItsNodeOnce: a BoundNew substitute equal to
// an expression the memo holds gives its payload node back exactly once,
// however often it is inserted again, and the node's next life is a clean one.
func TestInternedAwaySubstituteFreesItsNodeOnce(t *testing.T) {
	eachHashing(t, func(t *testing.T, newMemo func(*logical.Metadata) *Memo) {
		md := newMD(t)
		n := scan(t, md, "nation")
		m := newMemo(md)
		get := m.Insert(n)
		root := m.Insert(&logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{n}, Filter: gt(n.Cols[0], 1)})

		dup := m.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: gt(n.Cols[0], 1)}, GroupRef(get))
		node := dup.Node
		for i := 0; i < 3; i++ {
			if m.InsertSubstituteFrom(dup, root, 0) {
				t.Fatalf("insert %d: a duplicate substitute added an expression", i)
			}
			checkFreeList(t, m, 1)
		}
		if m.freeNodes[0] != node || dup.Node != m.Group(root).Exprs[0].Node {
			t.Error("the duplicate's node was not swapped for the interned one")
		}

		fresh := m.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: gt(n.Cols[0], 2)}, GroupRef(get))
		if fresh.Node != node {
			t.Error("the freed node was not reused")
		}
		if fresh.Node.Op != logical.OpSelect || !scalar.Equal(fresh.Node.Filter, gt(n.Cols[0], 2)) {
			t.Errorf("reused node carries its previous payload: %+v", fresh.Node)
		}
		if !m.InsertSubstituteFrom(fresh, root, 0) {
			t.Fatal("a new substitute in a reused node was not added")
		}
		checkFreeList(t, m, 0)
		if e := m.Group(root).Exprs[1]; e.Node != node {
			t.Error("the new expression did not adopt the substitute's node")
		}
	})
}

// TestSharedFreshSubtreeIsDisownedOnce: two substitutes over one BoundNew
// subtree intern it once — adopted by a new expression, or freed because an
// equal one exists — and both resolve it to the same group.
func TestSharedFreshSubtreeIsDisownedOnce(t *testing.T) {
	eachHashing(t, func(t *testing.T, newMemo func(*logical.Metadata) *Memo) {
		for _, exists := range []bool{false, true} {
			md := newMD(t)
			n := scan(t, md, "nation")
			m := newMemo(md)
			get := m.Insert(n)
			inner := &logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{n}, Filter: gt(n.Cols[0], 1)}
			root := m.Insert(&logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{inner}, Filter: gt(n.Cols[0], 9)})
			innerFilter := gt(n.Cols[0], 5) // a new group …
			if exists {
				innerFilter = gt(n.Cols[0], 1) // … or the one the query has
			}
			groups := m.NumGroups()

			shared := m.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: innerFilter}, GroupRef(get))
			s1 := m.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: gt(n.Cols[0], 10)}, shared)
			s2 := m.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: gt(n.Cols[0], 11)}, shared)
			if !m.InsertSubstituteFrom(s1, root, 0) || !m.InsertSubstituteFrom(s2, root, 0) {
				t.Fatalf("exists=%v: substitutes over a shared subtree were not added", exists)
			}
			wantFree, wantGroups := 0, groups+1
			if exists {
				wantFree, wantGroups = 1, groups
			}
			checkFreeList(t, m, wantFree)
			if m.NumGroups() != wantGroups {
				t.Errorf("exists=%v: %d groups, want %d", exists, m.NumGroups(), wantGroups)
			}
			exprs := m.Group(root).Exprs
			if k1, k2 := exprs[len(exprs)-2].Kids[0], exprs[len(exprs)-1].Kids[0]; k1 != k2 {
				t.Errorf("exists=%v: the shared subtree resolved to groups %d and %d", exists, k1, k2)
			}
		}
	})
}

// TestPassedThroughAndForeignNodesAreNeverFreed: a matched payload node passed
// through Bound and a node built with the package-level NewBound are not the
// memo's, so neither reaches the free list when its substitute interns away —
// alone or mixed into one tree with recycled nodes.
func TestPassedThroughAndForeignNodesAreNeverFreed(t *testing.T) {
	eachHashing(t, func(t *testing.T, newMemo func(*logical.Metadata) *Memo) {
		md := newMD(t)
		r := scan(t, md, "region")
		n := scan(t, md, "nation")
		join := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{n, r}, On: scalar.TrueExpr()}
		m := newMemo(md)
		root := m.Insert(&logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{join}, Filter: gt(n.Cols[0], 1)})
		sel := m.Group(root).Exprs[0]
		je := m.Group(sel.Kids[0]).Exprs[0]

		// Commute and commute back: the second is the original join.
		commuted := m.Bound(je.Node, GroupRef(je.Kids[1]), GroupRef(je.Kids[0]))
		if !m.InsertSubstituteFrom(commuted, je.Group, 0) {
			t.Fatal("commuted join was not added")
		}
		back := m.Bound(je.Node, GroupRef(je.Kids[0]), GroupRef(je.Kids[1]))
		if m.InsertSubstituteFrom(back, je.Group, 0) || m.InsertSubstituteFrom(commuted, je.Group, 0) {
			t.Error("a passed-through duplicate added an expression")
		}
		checkFreeList(t, m, 0, je.Node)
		if m.Group(je.Group).Exprs[1].Node != je.Node {
			t.Error("the commuted expression does not share the matched node")
		}

		// Select(foreign) over Join(recycled): both levels exist already.
		foreign := &logical.Expr{Op: logical.OpSelect, Filter: gt(n.Cols[0], 1)}
		mixed := NewBound(foreign,
			m.BoundNew(logical.Expr{Op: logical.OpJoin, On: scalar.TrueExpr()}, GroupRef(je.Kids[0]), GroupRef(je.Kids[1])))
		if m.InsertSubstituteFrom(mixed, root, 0) {
			t.Error("a duplicate mixed substitute added an expression")
		}
		checkFreeList(t, m, 1, je.Node, foreign)
		if mixed.Node != foreign {
			t.Error("a package-level substitute was rewritten")
		}

		// Select(recycled) over Join(foreign), new at both levels.
		foreignJoin := &logical.Expr{Op: logical.OpLeftJoin, On: scalar.TrueExpr()}
		mixed = m.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: gt(n.Cols[0], 2)},
			NewBound(foreignJoin, GroupRef(je.Kids[0]), GroupRef(je.Kids[1])))
		if !m.InsertSubstituteFrom(mixed, root, 0) {
			t.Error("a new mixed substitute was not added")
		}
		checkFreeList(t, m, 0, je.Node, foreign, foreignJoin)
	})
}

// TestResetLeavesNoTrace: a memo that held 1 200 expressions — every flag set,
// bindings and substitutes built, nodes on the free list — and is then Reset
// (poisoned first, or not) is indistinguishable from a new one to the next,
// three-expression query.
func TestResetLeavesNoTrace(t *testing.T) {
	eachHashing(t, func(t *testing.T, newMemo func(*logical.Metadata) *Memo) {
		for _, poison := range []bool{false, true} {
			md := newMD(t)
			n := scan(t, md, "nation")
			m := newMemo(md)
			tree := n
			for i := 0; i < 1199; i++ {
				tree = &logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{tree}, Filter: gt(n.Cols[0], int64(i))}
			}
			m.SetRoot(m.Insert(tree))
			if m.NumExprs() != 1200 {
				t.Fatalf("built %d expressions, want 1200", m.NumExprs())
			}
			for _, g := range m.Groups() {
				e := g.Exprs[0]
				e.MarkApplied(3)
				e.MarkApplied(77)
				e.Queued = 3
				m.NewBinding(e)
				// One more expression per group, and one duplicate each.
				m.InsertSubstituteFrom(m.BoundNew(logical.Expr{Op: logical.OpLimit, N: int64(g.ID)}, GroupRef(g.ID)), g.ID, 0)
				m.InsertSubstituteFrom(m.BoundNew(logical.Expr{Op: logical.OpLimit, N: int64(g.ID)}, GroupRef(g.ID)), g.ID, 0)
			}
			checkFreeList(t, m, 1) // each duplicate reused the node the one before it freed
			if poison {
				m.Poison()
			}

			r := scan(t, md, "region")
			small := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{n, r}, On: scalar.TrueExpr()}
			m.Reset(md)
			checkFreeList(t, m, 0)
			if m.NumExprs() != 0 || m.NumGroups() != 0 || m.Root != 0 || m.MD != md || len(m.intern) != 0 {
				t.Fatalf("poison=%v: Reset left %d exprs, %d groups, root %d, %d interned", poison, m.NumExprs(), m.NumGroups(), m.Root, len(m.intern))
			}
			m.SetRoot(m.Insert(small))
			fresh := newMemo(md)
			fresh.SetRoot(fresh.Insert(small))
			if m.String() != fresh.String() || m.NumExprs() != 3 || m.Root != fresh.Root {
				t.Fatalf("poison=%v: reset memo\n%sfresh memo\n%s", poison, m, fresh)
			}
			for i, g := range m.Groups() {
				f := fresh.Groups()[i]
				if len(g.Exprs) != 1 || g.ID != f.ID || !g.Cols.Equals(f.Cols) ||
					g.leaf.Group != f.ID || g.leaf.Node != nil || g.leaf.Kids != nil || g.leaf.Src != nil || g.leaf.owned {
					t.Errorf("poison=%v: G%d differs from a fresh memo's: %d exprs, cols %v, leaf %+v", poison, f.ID, len(g.Exprs), g.Cols.Sorted(), g.leaf)
				}
				e, fe := g.Exprs[0], f.Exprs[0]
				if e.applied != 0 || e.appliedBig != nil || e.Queued != 0 || e.CreatedBy != 0 || e.Ord != 0 ||
					e.Group != g.ID || e.Node != fe.Node || !slices.Equal(e.Kids, fe.Kids) {
					t.Errorf("poison=%v: G%d's expression carries state of the memo's previous life: %+v", poison, g.ID, *e)
				}
				if !m.collideAll && e.internNext != nil {
					t.Errorf("poison=%v: G%d's expression is chained to %p in an emptied intern table", poison, g.ID, e.internNext)
				}
			}
			// Storage the small query did not reach is zero, not stale.
			for _, c := range m.exprs.chunks {
				for i := range c {
					if e := &c[i]; e.Node != nil && (e.Group < 1 || int(e.Group) > 3) {
						t.Fatalf("poison=%v: expression storage still holds %+v", poison, *e)
					}
				}
			}
			for _, c := range m.nodes.chunks {
				for i := range c {
					if c[i].Op != 0 || c[i].Table != "" || c[i].N != 0 {
						t.Fatalf("poison=%v: node storage still holds %+v", poison, c[i])
					}
				}
			}
			for _, c := range m.bindings.chunks {
				for i := range c {
					if c[i].b.Node != nil || c[i].b.Src != nil || c[i].b.owned {
						t.Fatalf("poison=%v: binding storage still holds %+v", poison, c[i].b)
					}
				}
			}
			for _, c := range m.grps.chunks {
				for i := range c {
					if g := &c[i]; len(g.Exprs) > 1 || (g.ID == 0 && len(g.Exprs) != 0) {
						t.Fatalf("poison=%v: group storage still lists expressions: %+v", poison, *g)
					}
				}
			}
		}
	})
}
