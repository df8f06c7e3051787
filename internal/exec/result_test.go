package exec

import (
	"errors"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// The result contract of the batch engines: a scan's row view is returned
// uncopied, each other batch is gathered into one exact-size slab, and the
// result gets one header array of exactly its length; every row is clipped to
// its width. These tests run over opsCatalog's 2 600-row wide table, three
// batches at batchSize rows per batch and 2 600 parts at one row per batch.

// requireClipped fails unless the result and every one of its rows have no
// spare capacity.
func requireClipped(t *testing.T, what string, rows []datum.Row) {
	t.Helper()
	if cap(rows) != len(rows) {
		t.Errorf("%s: result has len %d, cap %d", what, len(rows), cap(rows))
	}
	for i, r := range rows {
		if cap(r) != len(r) {
			t.Fatalf("%s: row %d has len %d, cap %d", what, i, len(r), cap(r))
		}
	}
}

// requireRows fails unless got holds want's rows, in order, each a view of
// want's row (the same storage) when view is set and a copy of it otherwise.
func requireRows(t *testing.T, what string, got, want []datum.Row, view bool) {
	t.Helper()
	requireSameRows(t, want, got)
	for i := range want {
		if same := &got[i][0] == &want[i][0]; same != view {
			t.Fatalf("%s: row %d shares the table's storage: %v, want %v", what, i, same, view)
		}
	}
}

// wideScan scans the wide table as columns first, first+1 and first+2.
func wideScan(first scalar.ColumnID) *physical.Expr {
	return &physical.Expr{Op: physical.OpScan, Table: "wide", Cols: []scalar.ColumnID{first, first + 1, first + 2}}
}

func wideRows(t *testing.T, cat *catalog.Catalog) []datum.Row {
	t.Helper()
	tbl, err := cat.Table("wide")
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Rows
}

// TestGatheredResultIsExactSize: a result of more than a batch through a
// filter is gathered, and its header array and every row are exactly as long
// as they need to be.
func TestGatheredResultIsExactSize(t *testing.T) {
	cat := opsCatalog()
	table := wideRows(t, cat)
	plan := filterOf(wideScan(1), cmpExpr(scalar.CmpGE, col(3), intc(1)))
	for _, eng := range []Engine{EngineBatch, EngineRow} {
		rows, err := RunEngine(eng, plan, cat, 0, 0)
		if err != nil {
			t.Fatalf("%s engine: %v", eng, err)
		}
		requireRows(t, eng.String(), rows, table[1:], false)
		requireClipped(t, eng.String(), rows)
	}
}

// TestConcatKeepsViewsAndGatheredRowsInOrder: a UNION ALL of a bare scan and
// a filtered scan returns the scan's rows as views of the table and the
// filter's as gathered copies, the scan's first.
func TestConcatKeepsViewsAndGatheredRowsInOrder(t *testing.T) {
	cat := opsCatalog()
	table := wideRows(t, cat)
	plan := &physical.Expr{
		Op: physical.OpConcat,
		Children: []*physical.Expr{
			wideScan(1),
			filterOf(wideScan(11), cmpExpr(scalar.CmpLT, col(13), intc(1500))),
		},
		OutCols:   []scalar.ColumnID{21, 22, 23},
		InputCols: [][]scalar.ColumnID{{1, 2, 3}, {11, 12, 13}},
	}
	for _, eng := range []Engine{EngineBatch, EngineRow} {
		rows, err := RunEngine(eng, plan, cat, 0, 0)
		if err != nil {
			t.Fatalf("%s engine: %v", eng, err)
		}
		if len(rows) != len(table)+1500 {
			t.Fatalf("%s engine: %d rows, want %d", eng, len(rows), len(table)+1500)
		}
		requireRows(t, eng.String()+", scan half", rows[:len(table)], table, true)
		requireRows(t, eng.String()+", filter half", rows[len(table):], table[:1500], false)
		requireClipped(t, eng.String(), rows)
	}
}

// TestLimitCutsIntoRowView: a LIMIT that ends inside a scan's batch returns
// the table's rows up to it, uncopied, and nothing past it.
func TestLimitCutsIntoRowView(t *testing.T) {
	cat := opsCatalog()
	table := wideRows(t, cat)
	for _, n := range []int{10, batchSize + 476} {
		for _, eng := range []Engine{EngineBatch, EngineRow} {
			rows, err := RunEngine(eng, limitPlan(wideScan(1), int64(n)), cat, 0, 0)
			if err != nil {
				t.Fatalf("%s engine, LIMIT %d: %v", eng, n, err)
			}
			requireRows(t, eng.String(), rows, table[:n], true)
			requireClipped(t, eng.String(), rows)
		}
	}
}

// TestRowLimitBoundary: a result of exactly maxRows rows is returned whole,
// and one of maxRows+1 rows fails with ErrRowLimit, whether its rows are
// views, gathered or both.
func TestRowLimitBoundary(t *testing.T) {
	cat := opsCatalog()
	n := len(wideRows(t, cat))
	for _, tc := range []struct {
		name string
		plan *physical.Expr
		rows int
	}{
		{"scan", wideScan(1), n},
		{"filter", filterOf(wideScan(1), cmpExpr(scalar.CmpGE, col(3), intc(1))), n - 1},
		{"concat", &physical.Expr{
			Op:        physical.OpConcat,
			Children:  []*physical.Expr{wideScan(1), filterOf(wideScan(11), cmpExpr(scalar.CmpLT, col(13), intc(7)))},
			OutCols:   []scalar.ColumnID{21, 22, 23},
			InputCols: [][]scalar.ColumnID{{1, 2, 3}, {11, 12, 13}},
		}, n + 7},
	} {
		for _, eng := range []Engine{EngineBatch, EngineRow} {
			rows, err := RunEngine(eng, tc.plan, cat, tc.rows, 0)
			if err != nil || len(rows) != tc.rows {
				t.Errorf("%s, %s engine, maxRows %d: %d rows, %v", tc.name, eng, tc.rows, len(rows), err)
			}
			rows, err = RunEngine(eng, tc.plan, cat, tc.rows-1, 0)
			if !errors.Is(err, ErrRowLimit) || rows != nil {
				t.Errorf("%s, %s engine, maxRows %d: %d rows, %v; want ErrRowLimit", tc.name, eng, tc.rows-1, len(rows), err)
			}
		}
	}
}
