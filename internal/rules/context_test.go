package rules

import (
	"testing"

	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/physical"
)

// TestBareContextImplements pins the contract verify.go and every rule unit
// test rely on: a Context built as a bare literal, with nothing released, is
// complete — Implement allocates its candidates — and a released candidate
// comes back from the next Implement call with every field overwritten.
func TestBareContextImplements(t *testing.T) {
	m, sel, _ := buildMemo(t)
	join := m.Group(sel.Kids[0]).Exprs[0]
	reg := DefaultRegistry()
	implement := func(ctx *Context, id ID, e *memo.MExpr) *physical.Expr {
		t.Helper()
		r, err := reg.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		cands := r.(ImplementationRule).Implement(ctx, e)
		if len(cands) != 1 || cands[0] == nil {
			t.Fatalf("rule %d returned %d candidates", id, len(cands))
		}
		return cands[0]
	}

	ctx := &Context{Memo: m}
	hash := implement(ctx, 104, join)
	if hash.Op != physical.OpHashJoin || len(hash.EquiLeft) != 1 || hash.On != join.Node.On {
		t.Fatalf("hash join candidate wrong: %+v", hash)
	}
	filter := implement(ctx, 102, sel)
	if filter == hash {
		t.Fatal("a candidate that was never released was handed out again")
	}
	if hash.Op != physical.OpHashJoin {
		t.Fatal("building a second candidate disturbed the first")
	}

	// The implementor annotates a candidate before it loses; none of that
	// may survive into the node's next life.
	hash.Children = []*physical.Expr{filter}
	hash.Rows, hash.Cost = 7, 9
	hash.Hash()
	ctx.Release(hash)
	again := implement(ctx, 102, sel)
	if again != hash {
		t.Fatal("the released candidate was not reused")
	}
	want := physical.Expr{Op: physical.OpFilter, Filter: sel.Node.Filter}
	if again.Op != want.Op || again.Filter != want.Filter || again.JoinType != 0 || again.Children != nil ||
		again.On != nil || again.EquiLeft != nil || again.EquiRight != nil || again.Rows != 0 || again.Cost != 0 {
		t.Errorf("reused candidate kept state of its previous life: %+v", again)
	}
	if again.Hash() != filter.Hash() {
		t.Errorf("reused candidate hashes %q, a fresh one %q: stale memoized hash", again.Hash(), filter.Hash())
	}
}

// TestBindingsSurviveWithoutRelease pins the binder's storage contract for
// callers that never call ReleaseBindings (verify.go, the reference explorer):
// bindings from earlier Bind calls stay intact however many follow, and after
// a release the storage is reused without leaking the previous shape.
func TestBindingsSurviveWithoutRelease(t *testing.T) {
	m, sel, _ := buildMemo(t)
	p := P(logical.OpSelect, P(logical.OpJoin, Any(), Any()))
	first := Bind(m, sel, p)
	if len(first) != 1 {
		t.Fatalf("expected 1 binding, got %d", len(first))
	}
	b := first[0]
	inner := b.Kids[0]
	for i := 0; i < 500; i++ {
		if got := Bind(m, sel, p); len(got) != 1 || got[0] == b {
			t.Fatalf("bind %d: %d bindings, reused live storage: %v", i, len(got), len(got) == 1 && got[0] == b)
		}
	}
	if first[0] != b || b.Src != sel || b.Node != sel.Node || len(b.Kids) != 1 || b.Kids[0] != inner ||
		inner.Node.Op != logical.OpJoin || len(inner.Kids) != 2 || !inner.Kids[0].IsLeaf() || !inner.Kids[1].IsLeaf() {
		t.Error("an unreleased binding was overwritten by later Bind calls")
	}

	m.ReleaseBindings()
	join := m.Group(sel.Kids[0]).Exprs[0]
	after := Bind(m, join, P(logical.OpJoin, Any(), Any()))
	if len(after) != 1 || after[0].Src != join || len(after[0].Kids) != 2 || !after[0].Kids[0].IsLeaf() {
		t.Errorf("binding built in released storage is wrong: %+v", after)
	}
}
