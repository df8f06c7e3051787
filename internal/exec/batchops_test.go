package exec

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// opsCatalog holds the tables the sort, limit, concat and merge-join
// differentials run over, each longer than a batch:
//
//	wide(k, m, v), 2 600 rows: k = i mod 7 with every 11th NULL (ties and
//	  NULLs), m cycling INT, FLOAT, STRING, NULL, BOOL, DATE (mixed kinds,
//	  1 and 1.0 among them), v = i (which tied row is which)
//	ml(a, b), 1 500 rows: a = i mod 50 with every 13th NULL, b = i
//	mr(c, d), 1 300 rows: c = i mod 60 as an INT on even i and a FLOAT on odd
//	  i, every 17th NULL, d = i
func opsCatalog() *catalog.Catalog {
	cat := catalog.New()
	add := func(name string, cols []string, n int, row func(i int) datum.Row) {
		tbl := &catalog.Table{Name: name}
		for _, c := range cols {
			tbl.Columns = append(tbl.Columns, catalog.Column{Name: c, Type: datum.TypeInt})
		}
		for i := 0; i < n; i++ {
			tbl.Rows = append(tbl.Rows, row(i))
		}
		tbl.ComputeStats()
		cat.Add(tbl)
	}
	every := func(i, n int, d datum.Datum) datum.Datum {
		if i%n == 0 {
			return datum.Null
		}
		return d
	}
	add("wide", []string{"k", "m", "v"}, 2600, func(i int) datum.Row {
		var m datum.Datum
		switch i % 6 {
		case 0:
			m = datum.NewInt(int64(i % 5))
		case 1:
			m = datum.NewFloat(float64(i%5) / 2)
		case 2:
			m = datum.NewString(fmt.Sprint(i % 4))
		case 3:
			m = datum.Null
		case 4:
			m = datum.NewBool(i%4 == 0)
		default:
			m = datum.NewDate(int64(i % 3))
		}
		return datum.Row{every(i, 11, datum.NewInt(int64(i%7))), m, datum.NewInt(int64(i))}
	})
	add("ml", []string{"a", "b"}, 1500, func(i int) datum.Row {
		return datum.Row{every(i, 13, datum.NewInt(int64(i%50))), datum.NewInt(int64(i))}
	})
	add("mr", []string{"c", "d"}, 1300, func(i int) datum.Row {
		c := datum.NewInt(int64(i % 60))
		if i%2 == 1 {
			c = datum.NewFloat(float64(i % 60))
		}
		return datum.Row{every(i, 17, c), datum.NewInt(int64(i))}
	})
	return cat
}

func scanWide() *physical.Expr {
	return &physical.Expr{Op: physical.OpScan, Table: "wide", Cols: []scalar.ColumnID{1, 2, 3}}
}

func scanML() *physical.Expr {
	return &physical.Expr{Op: physical.OpScan, Table: "ml", Cols: []scalar.ColumnID{4, 5}}
}

func scanMR() *physical.Expr {
	return &physical.Expr{Op: physical.OpScan, Table: "mr", Cols: []scalar.ColumnID{6, 7}}
}

// mergePlan is the inner merge join ml.a = mr.c, with an optional residual.
func mergePlan(l, r *physical.Expr, residual scalar.Expr) *physical.Expr {
	on := cmpExpr(scalar.CmpEQ, col(4), col(6))
	if residual != nil {
		on = &scalar.And{Kids: []scalar.Expr{on, residual}}
	}
	return &physical.Expr{
		Op: physical.OpMergeJoin, JoinType: physical.JoinInner, Children: []*physical.Expr{l, r},
		On: on, EquiLeft: []scalar.ColumnID{4}, EquiRight: []scalar.ColumnID{6},
	}
}

// TestBatchOperatorsHandPlans holds sort, limit, concat and merge join over
// inputs of several batches to exact rows in exact order at both batch sizes,
// and to the reference engine's result.
func TestBatchOperatorsHandPlans(t *testing.T) {
	cat := opsCatalog()
	asc := func(c scalar.ColumnID) logical.SortKey { return logical.SortKey{Col: c} }
	desc := func(c scalar.ColumnID) logical.SortKey { return logical.SortKey{Col: c, Desc: true} }
	none := filterOf(scanWide(), cmpExpr(scalar.CmpLT, col(3), intc(0)))
	swapped := func(child *physical.Expr) *physical.Expr { // wide with its columns in another order
		return &physical.Expr{Op: physical.OpProject, Children: []*physical.Expr{child}, Projs: []logical.ProjItem{
			{Out: 11, E: col(3)}, {Out: 12, E: col(2)}, {Out: 13, E: col(1)},
		}}
	}
	concat := func(l, r *physical.Expr, lcols, rcols []scalar.ColumnID) *physical.Expr {
		return &physical.Expr{Op: physical.OpConcat, Children: []*physical.Expr{l, r},
			OutCols: []scalar.ColumnID{20, 21, 22}, InputCols: [][]scalar.ColumnID{lcols, rcols}}
	}
	plans := map[string]*physical.Expr{
		"sort-ties-stable":          sortPlan(scanWide(), asc(1)),
		"sort-desc-nulls-last":      sortPlan(scanWide(), desc(1)),
		"sort-mixed-kinds-asc":      sortPlan(scanWide(), asc(2)),
		"sort-mixed-kinds-desc":     sortPlan(scanWide(), desc(2)),
		"sort-two-keys":             sortPlan(scanWide(), desc(1), asc(2)),
		"sort-over-filter":          sortPlan(filterOf(scanWide(), cmpExpr(scalar.CmpNE, col(1), intc(3))), asc(2), desc(3)),
		"sort-empty":                sortPlan(none, asc(1)),
		"limit-0":                   limitPlan(scanWide(), 0),
		"limit-exact-batch":         limitPlan(scanWide(), batchSize),
		"limit-across-batches":      limitPlan(scanWide(), batchSize+5),
		"limit-over-input":          limitPlan(scanWide(), 5000),
		"limit-over-sort":           limitPlan(sortPlan(scanWide(), asc(1)), batchSize+7),
		"limit-over-filter":         limitPlan(filterOf(scanWide(), cmpExpr(scalar.CmpEQ, col(1), intc(2))), 300),
		"concat-permuted":           concat(scanWide(), swapped(scanWide()), []scalar.ColumnID{3, 1, 2}, []scalar.ColumnID{13, 11, 12}),
		"concat-empty-left":         concat(none, scanWide(), []scalar.ColumnID{1, 2, 3}, []scalar.ColumnID{3, 2, 1}),
		"concat-empty-right":        concat(scanWide(), none, []scalar.ColumnID{2, 2, 1}, []scalar.ColumnID{1, 2, 3}),
		"sort-over-concat":          sortPlan(concat(scanWide(), swapped(scanWide()), []scalar.ColumnID{1, 2, 3}, []scalar.ColumnID{13, 12, 11}), asc(20), desc(22)),
		"limit-over-concat":         limitPlan(concat(none, scanWide(), []scalar.ColumnID{1, 2, 3}, []scalar.ColumnID{1, 2, 3}), batchSize+1),
		"mergejoin":                 mergePlan(scanML(), scanMR(), nil),
		"mergejoin-residual":        mergePlan(scanML(), scanMR(), cmpExpr(scalar.CmpLT, col(5), col(7))),
		"mergejoin-built-sides":     mergePlan(filterOf(scanML(), cmpExpr(scalar.CmpNE, col(5), intc(7))), filterOf(scanMR(), cmpExpr(scalar.CmpGT, col(7), intc(3))), nil),
		"mergejoin-under-limit":     limitPlan(mergePlan(scanML(), scanMR(), nil), 10),
		"mergejoin-under-aggregate": {Op: physical.OpHashAgg, Children: []*physical.Expr{mergePlan(scanML(), scanMR(), nil)}, GroupCols: []scalar.ColumnID{4}, Aggs: []scalar.Agg{{Op: scalar.AggCountStar, Out: 30}}},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) { runEngines(t, plan, cat) })
	}
}

// refMergeJoin is the merge join the executor once ran: both inputs stably
// sorted on their keys by datum.TotalCompare, then key groups merged in key
// order, each left row of a group crossed with the group's right rows in
// order, the full predicate applied to each pair and NULL keys dropped. A
// compiled merge join must emit exactly its rows in exactly its order.
func refMergeJoin(lrows, rrows []datum.Row, lslots, rslots []int, on scalar.Expr, env scalar.Env) ([]datum.Row, error) {
	lrows, rrows = slices.Clone(lrows), slices.Clone(rrows)
	byKey := func(rows []datum.Row, slots []int) {
		slices.SortStableFunc(rows, func(a, b datum.Row) int {
			for _, s := range slots {
				if c := datum.TotalCompare(a[s], b[s]); c != 0 {
					return c
				}
			}
			return 0
		})
	}
	byKey(lrows, lslots)
	byKey(rrows, rslots)
	cmpKeys := func(l, r datum.Row) int {
		for i := range lslots {
			if c := datum.TotalCompare(l[lslots[i]], r[rslots[i]]); c != 0 {
				return c
			}
		}
		return 0
	}
	hasNullKey := func(row datum.Row, slots []int) bool {
		for _, s := range slots {
			if row[s].IsNull() {
				return true
			}
		}
		return false
	}
	var out []datum.Row
	li, ri := 0, 0
	for li < len(lrows) && ri < len(rrows) {
		if hasNullKey(lrows[li], lslots) {
			li++
			continue
		}
		if hasNullKey(rrows[ri], rslots) {
			ri++
			continue
		}
		if c := cmpKeys(lrows[li], rrows[ri]); c != 0 {
			if c < 0 {
				li++
			} else {
				ri++
			}
			continue
		}
		le := li
		for le < len(lrows) && cmpKeys(lrows[le], rrows[ri]) == 0 {
			le++
		}
		re := ri
		for re < len(rrows) && cmpKeys(lrows[li], rrows[re]) == 0 {
			re++
		}
		for i := li; i < le; i++ {
			for j := ri; j < re; j++ {
				pair := concatRows(lrows[i], rrows[j])
				ok, err := predOne(on, pair, env)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, pair)
				}
			}
		}
		li, ri = le, re
	}
	return out, nil
}

// TestMergeJoinMatchesMergeReference: at both batch sizes the merge join — a
// hash join over its probe side sorted on the keys — emits refMergeJoin's rows in
// refMergeJoin's order, over NULL keys, duplicate key groups on both sides,
// INT against FLOAT keys, a residual predicate, composite keys, and inputs
// that are not bare scans.
func TestMergeJoinMatchesMergeReference(t *testing.T) {
	cat := opsCatalog()
	composite := mergePlan(scanML(), scanMR(), nil)
	composite.EquiLeft, composite.EquiRight = []scalar.ColumnID{4, 5}, []scalar.ColumnID{6, 7}
	composite.On = &scalar.And{Kids: []scalar.Expr{cmpExpr(scalar.CmpEQ, col(4), col(6)), cmpExpr(scalar.CmpEQ, col(5), col(7))}}
	for name, plan := range map[string]*physical.Expr{
		"equi":      mergePlan(scanML(), scanMR(), nil),
		"residual":  mergePlan(scanML(), scanMR(), cmpExpr(scalar.CmpGT, col(5), col(7))),
		"composite": composite,
		"filtered":  mergePlan(filterOf(scanML(), cmpExpr(scalar.CmpGT, col(5), intc(100))), filterOf(scanMR(), cmpExpr(scalar.CmpLT, col(7), intc(900))), nil),
		"swapped":   mergePlan(scanMR(), scanML(), nil),
	} {
		t.Run(name, func(t *testing.T) {
			if name == "swapped" {
				plan.EquiLeft, plan.EquiRight = plan.EquiRight, plan.EquiLeft
			}
			var kids [2][]datum.Row
			var ins [2]*layout
			for i, k := range plan.Children {
				rows, err := Run(k, cat)
				if err != nil {
					t.Fatal(err)
				}
				kids[i], ins[i] = rows, &layout{cols: k.OutputCols()}
			}
			ls, rs, err := joinKeys(plan, ins[:])
			if err != nil {
				t.Fatal(err)
			}
			want, err := refMergeJoin(kids[0], kids[1], ls, rs, plan.On, envOf(plan.OutputCols()))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) < 100 {
				t.Fatalf("reference join has %d rows; the case wants many", len(want))
			}
			requireSameRows(t, want, runEngines(t, plan, cat))
		})
	}
}

// TestLimitOverBatchOperatorsBudgetLadder extends the Limit budget ladder to
// sort, concat and merge join: under a Limit an operator emits a whole batch,
// batchSize rows under EngineBatch where EngineRow emits one, so an EngineRow
// trip implies an EngineBatch trip, and the rows are equal whenever neither
// trips.
func TestLimitOverBatchOperatorsBudgetLadder(t *testing.T) {
	cat := opsCatalog()
	plans := map[string]*physical.Expr{
		"sort": limitPlan(sortPlan(scanWide(), logical.SortKey{Col: 1}), 5),
		"concat": limitPlan(&physical.Expr{Op: physical.OpConcat, Children: []*physical.Expr{scanWide(), scanWide()},
			OutCols: []scalar.ColumnID{20}, InputCols: [][]scalar.ColumnID{{3}, {1}}}, 5),
		"mergejoin": limitPlan(mergePlan(scanML(), scanMR(), nil), 5),
	}
	ladder := []int64{1, 10, 100, 1000, 2000, 2700, 2900, 3200, 3700, 4000, 5000, 1 << 20}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			want := runEngines(t, plan, cat)
			var rowTrips, batchTrips int
			for _, maxWork := range ladder {
				rowRows, rowErr := RunEngine(EngineRow, plan, cat, 0, maxWork)
				batchRows, batchErr := RunEngine(EngineBatch, plan, cat, 0, maxWork)
				for _, err := range []error{rowErr, batchErr} {
					if err != nil && !errors.Is(err, ErrRowLimit) {
						t.Fatalf("maxWork %d: %v", maxWork, err)
					}
				}
				if rowErr != nil {
					rowTrips++
				}
				if batchErr != nil {
					batchTrips++
				}
				if rowErr != nil && batchErr == nil {
					t.Fatalf("maxWork %d: row engine tripped, batch engine did not", maxWork)
				}
				if rowErr == nil && batchErr == nil {
					requireSameRows(t, rowRows, batchRows)
					requireSameRows(t, want, batchRows)
				}
			}
			if rowTrips == 0 || batchTrips <= rowTrips || batchTrips == len(ladder) {
				t.Fatalf("ladder tripped row %d / batch %d of %d rungs; want some, more, and not all", rowTrips, batchTrips, len(ladder))
			}
		})
	}
}

// TestScanResultOwnsItsRows: a bare scan's result takes its first batch's rows
// as they are, and those are a window of the table's own row slice. The result
// must still be the caller's: appending to it must not write into the table's
// spare capacity, and a second run must leave the table and the first result
// as they were. Both table sizes leave the table spare capacity; at batchSize
// rows per batch the larger spans two batches, at one row per batch both span
// many.
func TestScanResultOwnsItsRows(t *testing.T) {
	for _, eng := range []Engine{EngineRow, EngineBatch} {
		for _, n := range []int{batchSize / 2, batchSize + batchSize/2} {
			tbl := &catalog.Table{Name: "t", Columns: []catalog.Column{{Name: "k", Type: datum.TypeInt}}}
			tbl.Rows = make([]datum.Row, n, 2*n)
			for i := range tbl.Rows {
				tbl.Rows[i] = datum.Row{datum.NewInt(int64(i))}
			}
			tbl.ComputeStats()
			cat := catalog.New()
			cat.Add(tbl)
			want := slices.Clone(tbl.Rows)
			scan := &physical.Expr{Op: physical.OpScan, Table: "t", Cols: []scalar.ColumnID{1}}
			first, err := RunEngine(eng, scan, cat, 0, 0)
			if err != nil || len(first) != n {
				t.Fatalf("%s engine, %d rows: %d rows, %v", eng, n, len(first), err)
			}
			first = append(first, datum.Row{datum.NewInt(-1)})
			second, err := RunEngine(eng, scan, cat, 0, 0)
			if err != nil || len(second) != n {
				t.Fatalf("%s engine, %d rows: second run: %d rows, %v", eng, n, len(second), err)
			}
			if spare := tbl.Rows[:n+1][n]; spare != nil {
				t.Errorf("%s engine, %d rows: appending to a result wrote %v into the table's spare capacity", eng, n, spare)
			}
			for i, r := range want {
				if &tbl.Rows[i][0] != &r[0] || &first[i][0] != &r[0] || &second[i][0] != &r[0] {
					t.Fatalf("%s engine, %d rows: row %d moved: table %v, first %v, second %v", eng, n, i, tbl.Rows[i], first[i], second[i])
				}
			}
		}
	}
}
