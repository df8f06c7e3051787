package qtrtest

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/scalar"
)

// TestFrontEndScratchPoisonIsInvisible runs the front end with the scratch
// it recycles poisoned (bind.PoisonReleased: the binder's project items, put
// back after every binding, the generator's candidate column lists and the
// column-table storage its trial metadata's last Reset dropped, before every
// trial renders, and the storage the Reset of a fuzz query's recycled
// metadata dropped, before the query renders) and requires what unpoisoned
// runs give: the seed-42 generation of `suite -pairs -n 6 -k 3` on two
// workers, the seed-42 star fuzz campaign of 200 queries, and, for every
// query that generation kept, the tree and metadata BindSQL returns, held
// while all the others bind on the same scratch and compared with a fresh
// binding afterwards.
func TestFrontEndScratchPoisonIsInvisible(t *testing.T) {
	defer bind.PoisonReleased.Store(false)
	tpch, star := OpenTPCH(1, 42), OpenStar(1, 42)
	generate := func() (string, []string) {
		g, err := tpch.GenerateSuite(PairTargets(tpch.ExplorationRuleIDs(6)), SuiteConfig{K: 3, Seed: 42, ExtraOps: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		sqls := make([]string, len(g.Queries))
		for i, q := range g.Queries {
			fmt.Fprintf(&sb, "%s\n%s%v %.6f\n%s", q.SQL, q.Tree, q.RuleSet.Sorted(), q.Cost, q.BasePlan)
			sqls[i] = q.SQL
		}
		return sb.String(), sqls
	}
	fuzzStar := func() string {
		rep, err := star.Fuzz(FuzzConfig{Seed: 42, N: 200, Workers: 2, DB: "star"})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	wantSuite, sqls := generate()
	wantFuzz := fuzzStar()
	if len(sqls) < 30 {
		t.Fatalf("the generation kept %d queries; the corpus is too small to tell", len(sqls))
	}
	bind.PoisonReleased.Store(true)
	if got, _ := generate(); got != wantSuite {
		t.Errorf("poisoned front-end scratch changed the suite generation:\n got: %.2000s\nwant: %.2000s", got, wantSuite)
	}
	if got := fuzzStar(); got != wantFuzz {
		t.Errorf("poisoned front-end scratch changed the star fuzz report:\n got: %.2000s\nwant: %.2000s", got, wantFuzz)
	}
	held := make([]*bind.Bound, len(sqls))
	for i, q := range sqls {
		b, err := bind.BindSQL(q, tpch.Catalog)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		held[i] = b
	}
	bind.PoisonReleased.Store(false)
	for i, q := range sqls {
		fresh, err := bind.BindSQL(q, tpch.Catalog)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got, want := boundText(held[i]), boundText(fresh); got != want {
			t.Errorf("%s: a binding held across poisoned scratch differs from a fresh one:\n got: %s\nwant: %s", q, got, want)
		}
	}
}

// boundText writes a binding's tree, output names and every metadata column.
func boundText(b *bind.Bound) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s%q\n", b.Tree, b.OutNames)
	types := b.MD.TypeEnv()
	for id := scalar.ColumnID(1); ; id++ {
		if _, ok := types(id); !ok {
			break
		}
		fmt.Fprintf(&sb, "%d:%+v\n", id, b.MD.Column(id))
	}
	return sb.String()
}
