package memo

import (
	"testing"

	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// scratchSubstitute builds Group(Project(Select(get))) the way rules build
// substitutes: the filter an And over a scratch conjunct list, the projection
// items and the grouping columns scratch too, every payload a BoundNew.
func scratchSubstitute(m *Memo, get GroupID, c0, c1 scalar.ColumnID, v int64) *BoundExpr {
	conj := m.ScratchExprs(2)
	conj[0], conj[1] = gt(c0, v), gt(c1, v)
	sel := m.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: m.And(conj)}, GroupRef(get))
	projs := m.ScratchProjs(2)
	projs[0] = logical.ProjItem{Out: c0, E: scalar.Ref(c0)}
	projs[1] = logical.ProjItem{Out: c1, E: scalar.Ref(c1)}
	proj := m.BoundNew(logical.Expr{Op: logical.OpProject, Projs: projs}, sel)
	cols := m.ScratchCols(1)
	cols[0] = c0
	return m.BoundNew(logical.Expr{Op: logical.OpGroupBy, GroupCols: cols}, proj)
}

// payloadText renders a payload as the text of the plan it lowers to.
func payloadText(p *logical.Expr) string { return exec.Lower(p).Hash() }

// payloads renders the payload of every node of a bound substitute.
func payloads(m *Memo, b *BoundExpr) []string {
	if b.IsLeaf() {
		return nil
	}
	p := m.Payload(b)
	out := []string{payloadText(&p)}
	for _, k := range b.Kids {
		out = append(out, payloads(m, k)...)
	}
	return out
}

// TestAdoptedPayloadLeavesScratch: the expressions interned from a substitute
// built in scratch keep heap copies of its pieces, so poisoning the scratch on
// release and building the next substitute over it changes nothing they read,
// and Payload gives a substitute kept uninterned the same guarantee. A piece
// that is not scratch is not copied.
func TestAdoptedPayloadLeavesScratch(t *testing.T) {
	md := newMD(t)
	n := scan(t, md, "nation")
	c0, c1 := n.Cols[0], n.Cols[1]
	m := New(md)
	get := m.Insert(n)

	g := m.ensureGroup(scratchSubstitute(m, get, c0, c1, 1), 0)
	var adopted []string
	for id := g; ; {
		e := m.Group(id).Exprs[0]
		adopted = append(adopted, payloadText(e.Node))
		if e.Node.Op == logical.OpSelect {
			break
		}
		id = e.Kids[0]
	}
	kept := scratchSubstitute(m, get, c0, c1, 2)
	want := payloads(m, kept)
	held := make([]logical.Expr, 0, 3)
	for b := kept; !b.IsLeaf(); b = b.Kids[0] {
		held = append(held, m.Payload(b))
	}

	PoisonReleased.Store(true)
	m.ReleaseBindings()
	PoisonReleased.Store(false)
	scratchSubstitute(m, get, c0, c1, 3)

	for i, id := 0, g; i < len(adopted); i, id = i+1, m.Group(id).Exprs[0].Kids[0] {
		if got := payloadText(m.Group(id).Exprs[0].Node); got != adopted[i] {
			t.Errorf("G%d: adopted payload reads %q after the scratch was recycled, want %q", id, got, adopted[i])
		}
	}
	for i := range held {
		if got := payloadText(&held[i]); got != want[i] {
			t.Errorf("payload %d of a substitute kept uninterned reads %q after the scratch was recycled, want %q", i, got, want[i])
		}
	}

	heap := &scalar.And{Kids: []scalar.Expr{gt(c0, 4), gt(c1, 4)}}
	b := m.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: heap}, GroupRef(get))
	if e := m.Group(m.ensureGroup(b, 0)).Exprs[0]; e.Node.Filter != heap {
		t.Error("an adopted payload's And that is not scratch was copied")
	}
	b = m.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: m.And(heap.Kids[:1:1])}, GroupRef(get))
	shared := m.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: m.And(heap.Kids)}, b)
	if a := m.Group(m.ensureGroup(shared, 0)).Exprs[0].Node.Filter.(*scalar.And); m.ands.holds(a) || &a.Kids[0] != &heap.Kids[0] {
		t.Error("an adopted scratch And over a conjunct list that is not scratch was not copied, or its list was")
	}
}
