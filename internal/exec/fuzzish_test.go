package exec

import (
	"math/rand"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// randomTable builds a table with random (seeded) ints incl. NULLs.
func randomTable(name string, cols, rows int, seed int64) *catalog.Table {
	r := rand.New(rand.NewSource(seed))
	t := &catalog.Table{Name: name}
	for c := 0; c < cols; c++ {
		t.Columns = append(t.Columns, catalog.Column{
			Name: string(rune('a' + c)), Type: datum.TypeInt,
		})
	}
	for i := 0; i < rows; i++ {
		row := make(datum.Row, cols)
		for c := range row {
			if r.Intn(10) == 0 {
				row[c] = datum.Null
			} else {
				row[c] = datum.NewInt(int64(r.Intn(8)))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.ComputeStats()
	return t
}

// naiveJoin computes a reference join result directly over the rows.
func naiveJoin(l, r *catalog.Table, jt physical.JoinType) []datum.Row {
	matches := func(a, b datum.Row) bool {
		c, ok := datum.Compare(a[0], b[0])
		return ok && c == 0
	}
	var out []datum.Row
	for _, lr := range l.Rows {
		matched := false
		for _, rr := range r.Rows {
			if matches(lr, rr) {
				matched = true
				switch jt {
				case physical.JoinInner, physical.JoinLeft:
					out = append(out, concatRows(lr, rr))
				case physical.JoinSemi:
				}
				if jt == physical.JoinSemi {
					break
				}
			}
		}
		switch jt {
		case physical.JoinLeft:
			if !matched {
				out = append(out, concatRows(lr, nullRow(len(r.Columns))))
			}
		case physical.JoinSemi:
			if matched {
				out = append(out, lr)
			}
		case physical.JoinAnti:
			if !matched {
				out = append(out, lr)
			}
		}
	}
	return out
}

// TestJoinsAgainstNaiveReference cross-checks every join operator and type
// against a brute-force reference over many random tables with NULL keys.
func TestJoinsAgainstNaiveReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := catalog.New()
		lt := randomTable("l", 2, 12+int(seed)%9, seed)
		rt := randomTable("r", 2, 9+int(seed)%7, seed+1000)
		c.Add(lt)
		c.Add(rt)
		scanL := &physical.Expr{Op: physical.OpScan, Table: "l", Cols: []scalar.ColumnID{1, 2}}
		scanR := &physical.Expr{Op: physical.OpScan, Table: "r", Cols: []scalar.ColumnID{3, 4}}
		on := &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 3}}

		for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
			want := naiveJoin(lt, rt, jt)
			ops := []physical.Op{physical.OpHashJoin, physical.OpNLJoin}
			if jt == physical.JoinInner {
				ops = append(ops, physical.OpMergeJoin)
			}
			for _, op := range ops {
				plan := &physical.Expr{
					Op: op, JoinType: jt,
					Children:  []*physical.Expr{scanL, scanR},
					On:        on,
					EquiLeft:  []scalar.ColumnID{1},
					EquiRight: []scalar.ColumnID{3},
				}
				got, err := Run(plan, c)
				if err != nil {
					t.Fatalf("seed %d %s(%s): %v", seed, op, jt, err)
				}
				if !EqualMultisets(want, got) {
					t.Fatalf("seed %d %s(%s): %d rows vs reference %d\n%s",
						seed, op, jt, len(got), len(want), DiffSummary(want, got))
				}
			}
		}
	}
}

// TestAggAgainstNaiveReference cross-checks grouped SUM/COUNT against a
// brute-force computation.
func TestAggAgainstNaiveReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := catalog.New()
		tbl := randomTable("t", 2, 30, seed)
		c.Add(tbl)
		scan := &physical.Expr{Op: physical.OpScan, Table: "t", Cols: []scalar.ColumnID{1, 2}}
		agg := &physical.Expr{
			Op: physical.OpHashAgg, Children: []*physical.Expr{scan},
			GroupCols: []scalar.ColumnID{1},
			Aggs: []scalar.Agg{
				{Op: scalar.AggCountStar, Out: 10},
				{Op: scalar.AggSum, Arg: &scalar.ColRef{ID: 2}, Out: 11},
			},
		}
		got, err := Run(agg, c)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		type acc struct {
			n    int64
			sum  int64
			some bool
		}
		ref := make(map[string]*acc)
		for _, row := range tbl.Rows {
			k := rowKey(datum.Row{row[0]})
			a := ref[k]
			if a == nil {
				a = &acc{}
				ref[k] = a
			}
			a.n++
			if !row[1].IsNull() {
				a.sum += row[1].I
				a.some = true
			}
		}
		if len(got) != len(ref) {
			t.Fatalf("seed %d: groups %d vs reference %d", seed, len(got), len(ref))
		}
		for _, row := range got {
			k := rowKey(datum.Row{row[0]})
			a := ref[k]
			if a == nil {
				t.Fatalf("seed %d: unexpected group %v", seed, row[0])
			}
			if row[1].I != a.n {
				t.Errorf("seed %d group %v: count %d vs %d", seed, row[0], row[1].I, a.n)
			}
			if a.some && row[2].I != a.sum {
				t.Errorf("seed %d group %v: sum %v vs %d", seed, row[0], row[2], a.sum)
			}
			if !a.some && !row[2].IsNull() {
				t.Errorf("seed %d group %v: sum should be NULL", seed, row[0])
			}
		}
	}
}
