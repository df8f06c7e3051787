package qgen

import (
	"math"
	"testing"
	"testing/quick"

	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/rules"
)

// TestGeneratorDeterministic: same seed, same sequence of generated SQL.
func TestGeneratorDeterministic(t *testing.T) {
	a := newTestGenerator(t, 101)
	b := newTestGenerator(t, 101)
	for i := 0; i < 10; i++ {
		qa, err := a.GenerateRandom(nil)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := b.GenerateRandom(nil)
		if err != nil {
			t.Fatal(err)
		}
		if qa.SQL != qb.SQL {
			t.Fatalf("query %d diverged:\n%s\nvs\n%s", i, qa.SQL, qb.SQL)
		}
	}
}

// TestComposePatternsCount: compositions = generic slots of a + generic
// slots of b + the two root combinations (Join, UnionAll).
func TestComposePatternsCount(t *testing.T) {
	reg := rules.DefaultRegistry()
	f := func(ai, bi uint8) bool {
		expl := rules.ExplorationRules()
		a := expl[int(ai)%len(expl)].Pattern()
		b := expl[int(bi)%len(expl)].Pattern()
		comps := ComposePatterns(a, b)
		return len(comps) == len(a.Generics())+len(b.Generics())+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	_ = reg
}

// TestMemoInsertIdempotent: inserting the same random tree twice neither
// adds expressions nor creates a new group — the interning invariant the
// whole exploration loop depends on.
func TestMemoInsertIdempotent(t *testing.T) {
	g := newTestGenerator(t, 113)
	for i := 0; i < 50; i++ {
		md := logical.NewMetadata(g.opt.Catalog())
		tree, err := g.RandomTreeWeighted(md, 2+i%6, randomWeights)
		if err != nil {
			t.Fatal(err)
		}
		m := memo.New(md)
		g1 := m.Insert(tree)
		groups, exprs := m.NumGroups(), m.NumExprs()
		g2 := m.Insert(tree.Clone())
		if g1 != g2 {
			t.Fatalf("re-inserting a tree changed its group: %d vs %d", g1, g2)
		}
		if m.NumGroups() != groups || m.NumExprs() != exprs {
			t.Fatalf("re-insertion grew the memo: %d/%d -> %d/%d",
				groups, exprs, m.NumGroups(), m.NumExprs())
		}
	}
}

// TestRandomTreesAreValid: every random tree renders to SQL that parses,
// binds, optimizes and has a consistent output column set.
func TestRandomTreesAreValid(t *testing.T) {
	g := newTestGenerator(t, 127)
	for i := 0; i < 60; i++ {
		md := logical.NewMetadata(g.opt.Catalog())
		tree, err := g.RandomTreeWeighted(md, 2+i%8, randomWeights)
		if err != nil {
			t.Fatal(err)
		}
		if len(tree.OutputCols()) == 0 {
			t.Fatalf("tree %d has no output columns:\n%s", i, tree)
		}
		h, err := g.tryTree(tree, md, nil, math.MaxInt)
		if err == nil {
			_, err = g.keep(h)
		}
		if err != nil {
			t.Fatalf("tree %d failed the pipeline: %v\n%s", i, err, tree)
		}
	}
}

// TestPatternTreesContainPattern: instantiation must embed the pattern shape
// (the necessary condition of §3.1) in the produced tree.
func TestPatternTreesContainPattern(t *testing.T) {
	g := newTestGenerator(t, 131)
	for _, r := range rules.ExplorationRules() {
		p, err := g.Pattern(r.ID())
		if err != nil {
			t.Fatal(err)
		}
		md := logical.NewMetadata(g.opt.Catalog())
		tree, err := g.instantiate(p, md)
		if err != nil {
			continue // some patterns need several draws; covered elsewhere
		}
		if !p.ContainedIn(tree) {
			t.Errorf("rule %d (%s): instantiated tree does not contain its pattern\n%s",
				r.ID(), r.Name(), tree)
		}
	}
}
