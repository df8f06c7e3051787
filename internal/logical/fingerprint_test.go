package logical_test

import (
	"math/rand"
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/fnv64"
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// payloadGen builds random operator payloads (children are irrelevant to
// fingerprints) from a seeded RNG, covering every operator and scalar form.
// A retyping generator draws what a plain one fed the same seed draws, but
// writes each INT, integral FLOAT or DATE constant as the next of those three
// kinds, so the two payloads differ in constant kinds alone.
type payloadGen struct {
	rng    *rand.Rand
	retype bool
}

func (g *payloadGen) col() scalar.ColumnID { return scalar.ColumnID(1 + g.rng.Intn(8)) }

// datum draws a constant; INTs, DATEs and integral FLOATs take the same
// values. Every call makes the same draws, so retyping keeps a generator's
// stream in step with the plain one's.
func (g *payloadGen) datum() datum.Datum {
	k, v, w := g.rng.Intn(7), int64(g.rng.Intn(8)-4), g.rng.Intn(100)
	if g.retype && k < 3 {
		k = (k + 1) % 3
	}
	switch k {
	case 0:
		return datum.NewInt(v)
	case 1:
		return datum.NewFloat(float64(v))
	case 2:
		return datum.NewDate(v)
	case 3:
		return datum.NewFloat(float64(w) / 4)
	case 4:
		return datum.NewString(string(rune('a' + w%4)))
	case 5:
		return datum.NewBool(w%2 == 0)
	default:
		return datum.Null
	}
}

func (g *payloadGen) scalarExpr(depth int) scalar.Expr {
	if depth <= 0 {
		if g.rng.Intn(2) == 0 {
			return &scalar.ColRef{ID: g.col()}
		}
		return &scalar.Const{D: g.datum()}
	}
	switch g.rng.Intn(6) {
	case 0:
		return &scalar.Cmp{Op: scalar.CmpOp(g.rng.Intn(6)), L: g.scalarExpr(depth - 1), R: g.scalarExpr(depth - 1)}
	case 1:
		return &scalar.Arith{Op: scalar.ArithOp(g.rng.Intn(3)), L: g.scalarExpr(depth - 1), R: g.scalarExpr(depth - 1)}
	case 2:
		kids := make([]scalar.Expr, g.rng.Intn(3))
		for i := range kids {
			kids[i] = g.scalarExpr(depth - 1)
		}
		return &scalar.And{Kids: kids}
	case 3:
		kids := make([]scalar.Expr, 1+g.rng.Intn(2))
		for i := range kids {
			kids[i] = g.scalarExpr(depth - 1)
		}
		return &scalar.Or{Kids: kids}
	case 4:
		return &scalar.Not{Kid: g.scalarExpr(depth - 1)}
	default:
		return &scalar.IsNull{Kid: g.scalarExpr(depth - 1)}
	}
}

func (g *payloadGen) cols(n int) []scalar.ColumnID {
	out := make([]scalar.ColumnID, n)
	for i := range out {
		out[i] = g.col()
	}
	return out
}

func (g *payloadGen) node() *logical.Expr {
	ops := []logical.Op{logical.OpGet, logical.OpSelect, logical.OpProject,
		logical.OpJoin, logical.OpLeftJoin, logical.OpSemiJoin, logical.OpAntiJoin,
		logical.OpGroupBy, logical.OpUnionAll, logical.OpLimit, logical.OpSort}
	e := &logical.Expr{Op: ops[g.rng.Intn(len(ops))]}
	switch e.Op {
	case logical.OpGet:
		e.Table = []string{"t", "u", "v"}[g.rng.Intn(3)]
		e.Cols = g.cols(1 + g.rng.Intn(3))
	case logical.OpSelect:
		e.Filter = g.scalarExpr(2)
	case logical.OpJoin, logical.OpLeftJoin, logical.OpSemiJoin, logical.OpAntiJoin:
		e.On = g.scalarExpr(2)
	case logical.OpProject:
		e.Projs = make([]logical.ProjItem, 1+g.rng.Intn(3))
		for i := range e.Projs {
			e.Projs[i] = logical.ProjItem{Out: g.col(), E: g.scalarExpr(1)}
		}
	case logical.OpGroupBy:
		e.GroupCols = g.cols(g.rng.Intn(3))
		e.Aggs = make([]scalar.Agg, 1+g.rng.Intn(2))
		for i := range e.Aggs {
			op := scalar.AggOp(g.rng.Intn(3))
			a := scalar.Agg{Op: op, Out: g.col()}
			if op != scalar.AggCountStar {
				a.Arg = &scalar.ColRef{ID: g.col()}
			}
			e.Aggs[i] = a
		}
	case logical.OpUnionAll:
		n := 1 + g.rng.Intn(3)
		e.OutCols = g.cols(n)
		e.InputCols = [][]scalar.ColumnID{g.cols(n), g.cols(n)}
	case logical.OpLimit:
		e.N = int64(g.rng.Intn(50))
	case logical.OpSort:
		e.Keys = make([]logical.SortKey, 1+g.rng.Intn(3))
		for i := range e.Keys {
			e.Keys[i] = logical.SortKey{Col: g.col(), Desc: g.rng.Intn(2) == 0}
		}
	}
	return e
}

func fingerprintOf(e *logical.Expr) uint64 {
	h := fnv64.New()
	e.PayloadFingerprint(&h)
	return h.Sum()
}

// TestFingerprintProperties checks, over a deterministic random corpus of
// payloads and their retyped twins, the three properties the memo's
// interning table rests on:
//
//  1. structurally equal payloads (node vs. deep clone) fingerprint equal
//     and compare PayloadEqual;
//  2. fingerprints and PayloadEqual agree with the text of the plan a
//     payload lowers to (exec.Lower(node).Hash()): payloads with equal texts
//     are PayloadEqual with equal fingerprints — so a text that wrote two
//     constant kinds alike would fail here;
//  3. payloads with distinct texts are never PayloadEqual — and, for this
//     corpus, fingerprint distinctly (the seeds are fixed, so this is a
//     regression check, not a probabilistic claim).
func TestFingerprintProperties(t *testing.T) {
	const n = 400
	nodes := make([]*logical.Expr, n)
	for i := 0; i < n; i += 2 {
		seed := int64(7 + i)
		nodes[i] = (&payloadGen{rng: rand.New(rand.NewSource(seed))}).node()
		nodes[i+1] = (&payloadGen{rng: rand.New(rand.NewSource(seed)), retype: true}).node()
	}

	for i, e := range nodes {
		c := e.Clone()
		if !e.PayloadEqual(c) {
			t.Fatalf("node %d: clone not PayloadEqual:\n%s", i, e)
		}
		if fingerprintOf(e) != fingerprintOf(c) {
			t.Fatalf("node %d: clone fingerprint differs:\n%s", i, e)
		}
	}

	byHash := make(map[string][]*logical.Expr)
	for _, e := range nodes {
		text := exec.Lower(e).Hash()
		byHash[text] = append(byHash[text], e)
	}
	byFP := make(map[uint64]string)
	for hash, group := range byHash {
		for _, e := range group {
			if !group[0].PayloadEqual(e) || fingerprintOf(group[0]) != fingerprintOf(e) {
				t.Fatalf("payloads with equal hash %q disagree on PayloadEqual/fingerprint", hash)
			}
		}
		fp := fingerprintOf(group[0])
		if prev, dup := byFP[fp]; dup {
			t.Fatalf("fingerprint collision between distinct payloads %q and %q", prev, hash)
		}
		byFP[fp] = hash
	}
	reps := make([]*logical.Expr, 0, len(byHash))
	for _, group := range byHash {
		reps = append(reps, group[0])
	}
	for i := range reps {
		for j := i + 1; j < len(reps); j++ {
			if reps[i].PayloadEqual(reps[j]) {
				t.Fatalf("distinct-hash payloads compare PayloadEqual:\n%s\nvs\n%s", reps[i], reps[j])
			}
		}
	}
	if len(byHash) < n/4 {
		t.Fatalf("corpus degenerate: only %d distinct payloads of %d", len(byHash), n)
	}
}

// TestFingerprintTreeEquality lifts property 1 to whole trees the way the
// memo consumes fingerprints: equal trees interned bottom-up must meet at
// every level.
func TestFingerprintTreeEquality(t *testing.T) {
	g := &payloadGen{rng: rand.New(rand.NewSource(11))}
	leaf := func() *logical.Expr {
		return &logical.Expr{Op: logical.OpGet, Table: "t", Cols: []scalar.ColumnID{1, 2}}
	}
	for i := 0; i < 50; i++ {
		filter := g.scalarExpr(2)
		tree := &logical.Expr{Op: logical.OpSelect, Filter: filter, Children: []*logical.Expr{
			{Op: logical.OpJoin, On: g.scalarExpr(1), Children: []*logical.Expr{leaf(), leaf()}},
		}}
		c := tree.Clone()
		var walk func(a, b *logical.Expr)
		walk = func(a, b *logical.Expr) {
			if fingerprintOf(a) != fingerprintOf(b) || !a.PayloadEqual(b) {
				t.Fatalf("iteration %d: subtree payloads diverge:\n%s\nvs\n%s", i, a, b)
			}
			for k := range a.Children {
				walk(a.Children[k], b.Children[k])
			}
		}
		walk(tree, c)
	}
}
