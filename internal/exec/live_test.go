package exec

import (
	"fmt"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// Liveness white-box tests: an operator that copies columns copies those read
// above it — and, for a build side or a sort, those it reads itself — and
// leaves every other slot an empty vector.

// wideCatalog holds two six-column tables: wl with columns 1..6, wr with
// 11..16.
func wideCatalog() *catalog.Catalog {
	cat := catalog.New()
	cat.Add(randomTable("wl", 6, 60, 1))
	cat.Add(randomTable("wr", 6, 60, 2))
	return cat
}

func scanWL() *physical.Expr {
	return &physical.Expr{Op: physical.OpScan, Table: "wl", Cols: []scalar.ColumnID{1, 2, 3, 4, 5, 6}}
}

func scanWR() *physical.Expr {
	return &physical.Expr{Op: physical.OpScan, Table: "wr", Cols: []scalar.ColumnID{11, 12, 13, 14, 15, 16}}
}

// untap returns the operator under a tap, or it if it is no tap.
func untap(it BatchIterator) BatchIterator {
	if tap, ok := it.(*batchTap); ok {
		return tap.BatchIterator
	}
	return it
}

// openTree compiles plan on the batch engine, opens its root over cat and
// returns the root operator under its tap.
func openTree(t *testing.T, plan *physical.Expr, cat *catalog.Catalog) BatchIterator {
	t.Helper()
	tr, err := Compile(EngineBatch, plan).compile()
	if err != nil {
		t.Fatal(err)
	}
	tr.runState = runState{cat: cat}
	if err := tr.batches.Open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.batches.Close() })
	return untap(tr.batches)
}

// requireLive requires exactly the slots live of vecs to hold data.
func requireLive(t *testing.T, what string, vecs []datum.Vec, live ...int) {
	t.Helper()
	want := map[int]bool{}
	for _, c := range live {
		want[c] = true
	}
	for c := range vecs {
		if got := len(vecs[c].D) > 0; got != want[c] {
			t.Errorf("%s: slot %d holds %d datums, want live = %v", what, c, len(vecs[c].D), want[c])
		}
	}
}

// TestNarrowJoinCopiesLiveColumns: under a one-column projection, a wide join
// gathers that column only and drains of its build side only that column and
// the key and predicate columns, whatever the operator and join type; the
// projection, a column reference, passes the join's vector through.
func TestNarrowJoinCopiesLiveColumns(t *testing.T) {
	cat := wideCatalog()
	for _, op := range []physical.Op{physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin} {
		for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft} {
			if op == physical.OpMergeJoin && jt != physical.JoinInner {
				continue
			}
			t.Run(fmt.Sprintf("%s-%s", op, jt), func(t *testing.T) {
				// The filter makes the build side one the join drains; its
				// column 12 is read below the join, not by it.
				build := filterOf(scanWR(), &scalar.Not{Kid: &scalar.IsNull{Kid: col(12)}})
				join := &physical.Expr{
					Op: op, JoinType: jt, Children: []*physical.Expr{scanWL(), build},
					On: &scalar.And{Kids: []scalar.Expr{
						cmpExpr(scalar.CmpEQ, col(1), col(11)), cmpExpr(scalar.CmpLE, col(3), col(13)),
					}},
					EquiLeft: []scalar.ColumnID{1}, EquiRight: []scalar.ColumnID{11},
				}
				plan := &physical.Expr{
					Op: physical.OpProject, Children: []*physical.Expr{join},
					Projs: []logical.ProjItem{{Out: 100, E: col(15)}},
				}
				runEngines(t, plan, cat)

				p := openTree(t, plan, cat).(*batchProject)
				j := untap(p.child).(*batchJoin)
				b, err := p.Next()
				if err != nil || b == nil {
					t.Fatalf("project: %v, %v", b, err)
				}
				requireLive(t, "join output", j.out.Cols, 6+4)
				requireLive(t, "build side", j.rightVecs, 0, 2, 4)
				if op == physical.OpMergeJoin {
					requireLive(t, "probe-side sort", j.left.(*batchSort).s.vecs, 0, 2)
				}
				if &b.Cols[0].D[0] != &j.out.Cols[10].D[0] || &b.Idx[0] != &j.out.Idx[0] {
					t.Errorf("the projection copied the join's column instead of passing it through")
				}
			})
		}
	}
}

// TestNarrowSortDrainsLiveSlots: a sort under a narrow parent drains its key
// and the column read above it, and nothing else.
func TestNarrowSortDrainsLiveSlots(t *testing.T) {
	cat := wideCatalog()
	sorted := sortPlan(filterOf(scanWL(), cmpExpr(scalar.CmpNE, col(6), intc(3))), logical.SortKey{Col: 2, Desc: true})
	plan := &physical.Expr{
		Op: physical.OpProject, Children: []*physical.Expr{sorted},
		Projs: []logical.ProjItem{
			{Out: 100, E: col(4)},
			{Out: 101, E: &scalar.Arith{Op: scalar.ArithAdd, L: col(5), R: intc(1)}}, // dead, but can fail
			{Out: 102, E: col(1)}, // dead
		},
	}
	parent := &physical.Expr{
		Op: physical.OpProject, Projs: []logical.ProjItem{{Out: 200, E: col(100)}},
		Children: []*physical.Expr{filterOf(plan, cmpExpr(scalar.CmpGE, col(100), intc(0)))},
	}
	runEngines(t, parent, cat)

	f := untap(openTree(t, parent, cat).(*batchProject).child).(*batchFilter)
	p := untap(f.child).(*batchProject)
	b, err := p.Next()
	if err != nil || b == nil {
		t.Fatalf("project: %v, %v", b, err)
	}
	requireLive(t, "sort", untap(p.child).(*batchSort).s.vecs, 1, 3, 4)
	requireLive(t, "project", b.Cols, 0, 1)
}
