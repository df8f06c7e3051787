package exec

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// runEngines executes the plan one row per batch (EngineRow) and batchSize
// rows per batch (EngineBatch) and requires byte-identical results in
// identical order — emission order must not depend on the batch size, which
// the fuzz report byte-identity test and CompareResults both lean on — and
// then holds the result to the reference engine's.
func runEngines(t *testing.T, plan *physical.Expr, cat *catalog.Catalog) []datum.Row {
	t.Helper()
	want, err := RunEngine(EngineRow, plan, cat, 0, 0)
	if err != nil {
		t.Fatalf("row engine: %v", err)
	}
	got, err := RunEngine(EngineBatch, plan, cat, 0, 0)
	if err != nil {
		t.Fatalf("batch engine: %v", err)
	}
	requireSameRows(t, want, got)
	requireRefAgrees(t, plan, cat, got)
	return got
}

// requireRefAgrees holds rows, plan's result over cat, to the reference
// engine's through the oracle: row for row on the sort keys where the plan
// has a root order, as multisets otherwise. Only under a Limit without a
// total order may the surviving rows differ; their count may not.
func requireRefAgrees(t *testing.T, plan *physical.Expr, cat *catalog.Catalog, rows []datum.Row) {
	t.Helper()
	ref, err := RunEngine(EngineRef, plan, cat, 0, 0)
	if err != nil {
		t.Fatalf("ref engine: %v", err)
	}
	order := RootOrder(plan)
	if v, detail := CompareResults(ref, order, rows, order); v == VerdictMismatch {
		t.Fatalf("ref engine disagrees: %s", detail)
	}
}

func requireSameRows(t *testing.T, want, got []datum.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d\n%s", len(got), len(want), DiffSummary(want, got))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: width %d vs %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d col %d: got %v (kind %v), want %v (kind %v)",
					i, j, got[i][j], got[i][j].K, want[i][j], want[i][j].K)
			}
		}
	}
}

// TestEngineDifferentialHandPlans holds a hand-built plan per operator and
// join type over the small tables to the reference engine, at one row and at
// batchSize rows per batch;
// TestBatchOperatorsHandPlans does sort, limit, concat and merge join over
// inputs of several batches.
func TestEngineDifferentialHandPlans(t *testing.T) {
	filterGT15 := func(child *physical.Expr) *physical.Expr {
		return &physical.Expr{
			Op: physical.OpFilter, Children: []*physical.Expr{child},
			Filter: &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: datum.NewInt(15)}},
		}
	}
	project := func(child *physical.Expr) *physical.Expr {
		return &physical.Expr{
			Op: physical.OpProject, Children: []*physical.Expr{child},
			Projs: []logical.ProjItem{
				{Out: 9, E: &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 1}, R: &scalar.Const{D: datum.NewInt(100)}}},
				{Out: 8, E: &scalar.ColRef{ID: 2}},
			},
		}
	}
	sortBy := func(child *physical.Expr, col scalar.ColumnID, desc bool) *physical.Expr {
		return &physical.Expr{
			Op: physical.OpSort, Children: []*physical.Expr{child},
			Keys: []logical.SortKey{{Col: col, Desc: desc}},
		}
	}
	agg := func(child *physical.Expr, groupBy []scalar.ColumnID, op physical.Op) *physical.Expr {
		return &physical.Expr{
			Op: op, Children: []*physical.Expr{child},
			GroupCols: groupBy,
			Aggs: []scalar.Agg{
				{Op: scalar.AggCountStar, Out: 20},
				{Op: scalar.AggSum, Arg: &scalar.ColRef{ID: 2}, Out: 21},
				{Op: scalar.AggMin, Arg: &scalar.ColRef{ID: 2}, Out: 22},
				{Op: scalar.AggMax, Arg: &scalar.ColRef{ID: 2}, Out: 23},
				{Op: scalar.AggAvg, Arg: &scalar.ColRef{ID: 2}, Out: 24},
			},
		}
	}

	plans := map[string]*physical.Expr{
		"scan":            scanT1(),
		"filter":          filterGT15(scanT1()),
		"project":         project(scanT1()),
		"sort":            sortBy(scanT1(), 2, true),
		"limit":           {Op: physical.OpLimit, N: 2, Children: []*physical.Expr{scanT1()}},
		"hashagg":         agg(scanT1(), []scalar.ColumnID{1}, physical.OpHashAgg),
		"sortagg":         agg(scanT1(), []scalar.ColumnID{1}, physical.OpSortAgg),
		"scalaragg":       agg(scanT1(), nil, physical.OpHashAgg),
		"scalaragg-empty": agg(filterGT15(filterGT15(scanT1())), nil, physical.OpHashAgg),
		"concat": {
			Op: physical.OpConcat, Children: []*physical.Expr{scanT1(), scanT2()},
			OutCols:   []scalar.ColumnID{30},
			InputCols: [][]scalar.ColumnID{{1}, {3}},
		},
		"agg-over-join": agg(joinPlan(physical.OpHashJoin, physical.JoinInner), []scalar.ColumnID{1}, physical.OpHashAgg),
		"sort-over-join-over-filter": sortBy(&physical.Expr{
			Op: physical.OpHashJoin, JoinType: physical.JoinLeft,
			Children:  []*physical.Expr{filterGT15(scanT1()), scanT2()},
			On:        eqOn(),
			EquiLeft:  []scalar.ColumnID{1},
			EquiRight: []scalar.ColumnID{3},
		}, 4, false),
		"project-over-agg": {
			Op:       physical.OpProject,
			Children: []*physical.Expr{agg(scanT1(), []scalar.ColumnID{1}, physical.OpHashAgg)},
			Projs: []logical.ProjItem{
				{Out: 40, E: &scalar.Arith{Op: scalar.ArithMul, L: &scalar.ColRef{ID: 21}, R: &scalar.Const{D: datum.NewInt(2)}}},
			},
		},
	}
	for _, op := range []physical.Op{physical.OpHashJoin, physical.OpNLJoin} {
		for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
			plans[fmt.Sprintf("%s-%s", op, jt)] = joinPlan(op, jt)
		}
	}
	plans["mergejoin-inner"] = joinPlan(physical.OpMergeJoin, physical.JoinInner)
	// Residual predicate on top of the equi-key: exercises partial selection
	// inside a join chunk.
	residual := joinPlan(physical.OpHashJoin, physical.JoinLeft)
	residual.On = &scalar.And{Kids: []scalar.Expr{
		eqOn(),
		&scalar.Cmp{Op: scalar.CmpNE, L: &scalar.ColRef{ID: 4}, R: &scalar.Const{D: datum.NewString("uno")}},
	}}
	plans["hashjoin-residual"] = residual

	cat := testCatalog()
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) { runEngines(t, plan, cat) })
	}
}

// TestEngineChunkSpanningJoin drives the batch join past candidateCap so
// probe rows span chunk boundaries: 200 probe rows × 300 matching build rows
// is 60000 candidate pairs against a 4096-pair chunk, so most rows' match
// lists are split mid-row and the carried matched / resume-cursor state is
// what keeps semi/anti/left fallout correct. The existing small-table tests
// never leave the first chunk. The nested-loops runs use a build side longer
// than candidateCap, so a single probe row's candidates span chunks — which a
// hash group of 300 never does.
func TestEngineChunkSpanningJoin(t *testing.T) {
	c := catalog.New()
	mk := func(name string, rows int, key func(i int) datum.Datum) *catalog.Table {
		tbl := &catalog.Table{Name: name, Columns: []catalog.Column{
			{Name: "k", Type: datum.TypeInt}, {Name: "v", Type: datum.TypeInt},
		}}
		for i := 0; i < rows; i++ {
			tbl.Rows = append(tbl.Rows, datum.Row{key(i), datum.NewInt(int64(i))})
		}
		tbl.ComputeStats()
		return tbl
	}
	// Left: mostly the hot key 7, with interleaved no-match keys and NULLs so
	// anti/left fallout rows appear between match-heavy rows.
	leftKey := func(i int) datum.Datum {
		switch {
		case i%17 == 0:
			return datum.NewInt(5) // never matches
		case i%23 == 0:
			return datum.Null
		default:
			return datum.NewInt(7)
		}
	}
	rightKey := func(i int) datum.Datum {
		if i%31 == 0 {
			return datum.Null
		}
		return datum.NewInt(7)
	}
	c.Add(mk("big_l", 200, leftKey))
	c.Add(mk("big_r", 300, rightKey))
	c.Add(mk("small_l", 40, leftKey))
	c.Add(mk("long_r", candidateCap+candidateCap/2, rightKey))
	scan := func(name string, k, v scalar.ColumnID) *physical.Expr {
		return &physical.Expr{Op: physical.OpScan, Table: name, Cols: []scalar.ColumnID{k, v}}
	}
	on := &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 3}}
	// A residual that passes about half the candidates, so selection vectors
	// inside chunks are partial rather than all-or-nothing.
	residual := func(bound int64) scalar.Expr {
		return &scalar.And{Kids: []scalar.Expr{
			on,
			&scalar.Cmp{Op: scalar.CmpLT,
				L: &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 2}, R: &scalar.ColRef{ID: 4}},
				R: &scalar.Const{D: datum.NewInt(bound)}},
		}}
	}
	for _, in := range []struct {
		prefix      string
		op          physical.Op
		left, right string
		bound       int64
	}{
		{"", physical.OpHashJoin, "big_l", "big_r", 250},
		{"nl-", physical.OpNLJoin, "big_l", "big_r", 250},
		{"nl-long-build-", physical.OpNLJoin, "small_l", "long_r", candidateCap},
	} {
		for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
			for _, pred := range []struct {
				name string
				on   scalar.Expr
			}{{"equi", on}, {"residual", residual(in.bound)}} {
				t.Run(fmt.Sprintf("%s%s-%s", in.prefix, jt, pred.name), func(t *testing.T) {
					plan := &physical.Expr{
						Op: in.op, JoinType: jt,
						Children:  []*physical.Expr{scan(in.left, 1, 2), scan(in.right, 3, 4)},
						On:        pred.on,
						EquiLeft:  []scalar.ColumnID{1},
						EquiRight: []scalar.ColumnID{3},
					}
					rows := runEngines(t, plan, c)
					if jt == physical.JoinInner && pred.name == "equi" && len(rows) <= candidateCap {
						t.Fatalf("test is not chunk-spanning: %d rows", len(rows))
					}
				})
			}
		}
	}
}

// TestEngineNLJoinShapes covers what only the keyless case of the batch join
// can meet: a build side with no rows (every probe row is fallout), ON TRUE
// (every pair passes, no column gathered for the predicate), a predicate that
// is NULL for some pairs, a build side that is not a bare scan, and probe
// batches that are another join's chunks.
func TestEngineNLJoinShapes(t *testing.T) {
	cat := testCatalog()
	cat.Add(randomTable("wide_l", 2, candidateCap+batchSize+100, 3))
	cat.Add(randomTable("three", 2, 3, 4))
	nl := func(jt physical.JoinType, l, r *physical.Expr, on scalar.Expr) *physical.Expr {
		return &physical.Expr{Op: physical.OpNLJoin, JoinType: jt, Children: []*physical.Expr{l, r}, On: on}
	}
	isTrue := &scalar.Const{D: datum.NewBool(true)}
	// b < x + 15 over t1 × t2: NULL whenever b or x is.
	nullable := cmpExpr(scalar.CmpLT, col(2), &scalar.Arith{Op: scalar.ArithAdd, L: col(3), R: intc(15)})
	emptyT2 := filterOf(scanT2(), cmpExpr(scalar.CmpGT, col(3), intc(1000)))
	for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
		plans := map[string]*physical.Expr{
			"empty-build":    nl(jt, scanT1(), emptyT2, eqOn()),
			"on-true":        nl(jt, scanT1(), scanT2(), isTrue),
			"null-predicate": nl(jt, scanT1(), scanT2(), nullable),
			"built-side":     nl(jt, scanT1(), filterOf(scanT2(), cmpExpr(scalar.CmpNE, col(3), intc(3))), nullable),
			// The probe batches are the lower join's chunks, not scan windows.
			"probe-is-join-output": nl(jt,
				nl(physical.JoinInner,
					&physical.Expr{Op: physical.OpScan, Table: "wide_l", Cols: []scalar.ColumnID{10, 11}},
					&physical.Expr{Op: physical.OpScan, Table: "three", Cols: []scalar.ColumnID{12, 13}},
					isTrue),
				scanT2(), cmpExpr(scalar.CmpEQ, col(10), col(3))),
		}
		for name, plan := range plans {
			t.Run(fmt.Sprintf("%s-%s", jt, name), func(t *testing.T) {
				runEngines(t, plan, cat)
			})
		}
	}
}

// TestLimitOverNLJoinBudgetLadder pins the budget contract on nested loops:
// under a Limit the join pulls whole probe batches and emits whole chunks,
// batchSize probe rows' worth under EngineBatch and one probe row's under
// EngineRow, so EngineBatch's work is never less — EngineRow tripping implies
// EngineBatch trips, and the rows are equal whenever neither does.
func TestLimitOverNLJoinBudgetLadder(t *testing.T) {
	cat := catalog.New()
	cat.Add(randomTable("l", 2, 3*batchSize, 5))
	cat.Add(randomTable("r", 2, 50, 6))
	for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
		plan := &physical.Expr{Op: physical.OpLimit, N: 5, Children: []*physical.Expr{{
			Op: physical.OpNLJoin, JoinType: jt,
			Children: []*physical.Expr{
				{Op: physical.OpScan, Table: "l", Cols: []scalar.ColumnID{1, 2}},
				{Op: physical.OpScan, Table: "r", Cols: []scalar.ColumnID{3, 4}},
			},
			On: cmpExpr(scalar.CmpLT, col(1), col(3)),
		}}}
		want := runEngines(t, plan, cat)
		var rowTrips, batchTrips int
		for _, maxWork := range []int64{1, 10, 60, 100, 1000, 2000, 5000, 20000, 1 << 20} {
			rowRows, rowErr := RunEngine(EngineRow, plan, cat, 0, maxWork)
			batchRows, batchErr := RunEngine(EngineBatch, plan, cat, 0, maxWork)
			for _, err := range []error{rowErr, batchErr} {
				if err != nil && !errors.Is(err, ErrRowLimit) {
					t.Fatalf("%s maxWork %d: %v", jt, maxWork, err)
				}
			}
			if rowErr != nil {
				rowTrips++
			}
			if batchErr != nil {
				batchTrips++
			}
			if rowErr != nil && batchErr == nil {
				t.Fatalf("%s maxWork %d: row engine tripped, batch engine did not", jt, maxWork)
			}
			if rowErr == nil && batchErr == nil {
				requireSameRows(t, rowRows, batchRows)
				requireSameRows(t, want, batchRows)
			}
		}
		if rowTrips == 0 || batchTrips <= rowTrips || batchTrips == 9 {
			t.Fatalf("%s: ladder tripped row %d / batch %d of 9 rungs; want some, more, and not all", jt, rowTrips, batchTrips)
		}
	}
}

// TestEngineLeftJoinOverJoinOutgrowsIota: a left join emits, per chunk, up to
// candidateCap matches plus one fallout row per unmatched probe row, and its
// probe batch can itself be a join's candidateCap-row output — so the chunk
// outgrows the shared denseIota, which is sized for a batchSize-row probe.
// Here a 1024-row scan fans out 4x into one 4096-row probe batch whose even
// rows match twice and odd rows not at all: one 6144-row output chunk, which
// used to slice denseIota out of range (and would again in the project above
// it). A nested-loops left join over that chunk with nothing on its build side
// is 6144 fallout rows in one chunk of its own.
func TestEngineLeftJoinOverJoinOutgrowsIota(t *testing.T) {
	c := catalog.New()
	add := func(name string, rows int, row func(i int) datum.Row) {
		tbl := &catalog.Table{Name: name, Columns: []catalog.Column{
			{Name: "a", Type: datum.TypeInt}, {Name: "b", Type: datum.TypeInt},
		}}
		for i := 0; i < rows; i++ {
			tbl.Rows = append(tbl.Rows, row(i))
		}
		tbl.ComputeStats()
		c.Add(tbl)
	}
	const fan = candidateCap / batchSize
	add("probe", batchSize, func(i int) datum.Row { return datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(-i))} })
	add("fanout", candidateCap, func(i int) datum.Row { return datum.Row{datum.NewInt(int64(i / fan)), datum.NewInt(int64(i))} })
	add("evens", candidateCap, func(i int) datum.Row { return datum.Row{datum.NewInt(int64(i &^ 1)), datum.NewInt(int64(i))} })
	join := func(jt physical.JoinType, l, r *physical.Expr, lk, rk scalar.ColumnID) *physical.Expr {
		return &physical.Expr{
			Op: physical.OpHashJoin, JoinType: jt, Children: []*physical.Expr{l, r},
			On:       &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: lk}, R: &scalar.ColRef{ID: rk}},
			EquiLeft: []scalar.ColumnID{lk}, EquiRight: []scalar.ColumnID{rk},
		}
	}
	scan := func(name string, a, b scalar.ColumnID) *physical.Expr {
		return &physical.Expr{Op: physical.OpScan, Table: name, Cols: []scalar.ColumnID{a, b}}
	}
	left := join(physical.JoinLeft,
		join(physical.JoinInner, scan("probe", 1, 2), scan("fanout", 3, 4), 1, 3),
		scan("evens", 5, 6), 4, 5)
	nlLeft := &physical.Expr{
		Op: physical.OpNLJoin, JoinType: physical.JoinLeft,
		Children: []*physical.Expr{left, filterOf(scan("probe", 7, 8), cmpExpr(scalar.CmpLT, col(7), intc(0)))},
		On:       cmpExpr(scalar.CmpEQ, col(6), col(8)),
	}
	plans := map[string]*physical.Expr{
		"leftjoin": left,
		"project-over-leftjoin": {
			Op: physical.OpProject, Children: []*physical.Expr{left},
			Projs: []logical.ProjItem{{Out: 9, E: &scalar.ColRef{ID: 4}}, {Out: 8, E: &scalar.ColRef{ID: 6}}},
		},
		"nljoin-over-leftjoin": nlLeft,
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			rows := runEngines(t, plan, c)
			if want := candidateCap + candidateCap/2; len(rows) != want || want <= len(denseIota) {
				t.Fatalf("%d rows, want one %d-row chunk longer than denseIota (%d)", len(rows), want, len(denseIota))
			}
		})
	}
}

// planGen builds random plans over fresh random tables, assigning globally
// unique column ids per scan. All columns are ints, so every generated
// expression is type-correct and scalar errors cannot make the engines
// diverge on error sites.
type planGen struct {
	r       *rand.Rand
	cat     *catalog.Catalog
	nextCol scalar.ColumnID
	nextTbl int
	// big is how many of the next scans read a table of more than one batch.
	big int
}

func (g *planGen) scan() *physical.Expr {
	name := fmt.Sprintf("g%d", g.nextTbl)
	rows := 8 + g.r.Intn(30)
	if g.big > 0 {
		g.big--
		rows = batchSize + 1 + g.r.Intn(2*batchSize)
	}
	tbl := randomTable(name, 3, rows, g.r.Int63())
	g.cat.Add(tbl)
	g.nextTbl++
	cols := make([]scalar.ColumnID, len(tbl.Columns))
	for i := range cols {
		cols[i] = g.nextCol
		g.nextCol++
	}
	return &physical.Expr{Op: physical.OpScan, Table: name, Cols: cols}
}

func (g *planGen) operand(cols []scalar.ColumnID) scalar.Expr {
	if g.r.Intn(3) == 0 {
		return &scalar.Const{D: datum.NewInt(int64(g.r.Intn(8)))}
	}
	return &scalar.ColRef{ID: cols[g.r.Intn(len(cols))]}
}

func (g *planGen) pred(cols []scalar.ColumnID, depth int) scalar.Expr {
	if depth > 0 {
		switch g.r.Intn(5) {
		case 0:
			return &scalar.And{Kids: []scalar.Expr{g.pred(cols, depth-1), g.pred(cols, depth-1)}}
		case 1:
			return &scalar.Or{Kids: []scalar.Expr{g.pred(cols, depth-1), g.pred(cols, depth-1)}}
		case 2:
			return &scalar.Not{Kid: g.pred(cols, depth-1)}
		}
	}
	if g.r.Intn(6) == 0 {
		return &scalar.IsNull{Kid: g.operand(cols)}
	}
	ops := []scalar.CmpOp{scalar.CmpEQ, scalar.CmpNE, scalar.CmpLT, scalar.CmpLE, scalar.CmpGT, scalar.CmpGE}
	return &scalar.Cmp{Op: ops[g.r.Intn(len(ops))], L: g.operand(cols), R: g.operand(cols)}
}

func (g *planGen) gen(depth int) *physical.Expr {
	if depth <= 0 || g.r.Intn(4) == 0 {
		return g.scan()
	}
	return g.op(depth, -1)
}

// op builds an operator of the given kind over random inputs: 0 filter,
// 1 project, 2 join, 3 aggregate, 4 sort, 5 limit, 6 concat; a negative kind
// draws one.
func (g *planGen) op(depth, kind int) *physical.Expr {
	child := g.gen(depth - 1)
	cols := child.OutputCols()
	if kind < 0 {
		kind = g.r.Intn(7)
	}
	switch kind {
	case 0:
		return &physical.Expr{
			Op: physical.OpFilter, Children: []*physical.Expr{child},
			Filter: g.pred(cols, 2),
		}
	case 1:
		n := 1 + g.r.Intn(3)
		projs := make([]logical.ProjItem, n)
		arith := []scalar.ArithOp{scalar.ArithAdd, scalar.ArithSub, scalar.ArithMul}
		for i := range projs {
			var e scalar.Expr
			if g.r.Intn(2) == 0 {
				e = g.operand(cols)
			} else {
				e = &scalar.Arith{Op: arith[g.r.Intn(len(arith))], L: g.operand(cols), R: g.operand(cols)}
			}
			projs[i] = logical.ProjItem{Out: g.nextCol, E: e}
			g.nextCol++
		}
		return &physical.Expr{Op: physical.OpProject, Children: []*physical.Expr{child}, Projs: projs}
	case 2:
		right := g.gen(depth - 1)
		rcols := right.OutputCols()
		jts := []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti}
		jt := jts[g.r.Intn(len(jts))]
		ops := []physical.Op{physical.OpHashJoin, physical.OpNLJoin}
		if jt == physical.JoinInner {
			ops = append(ops, physical.OpMergeJoin)
		}
		lk := cols[g.r.Intn(len(cols))]
		rk := rcols[g.r.Intn(len(rcols))]
		var on scalar.Expr = &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: lk}, R: &scalar.ColRef{ID: rk}}
		if g.r.Intn(3) == 0 {
			on = &scalar.And{Kids: []scalar.Expr{on, g.pred(append(append([]scalar.ColumnID{}, cols...), rcols...), 1)}}
		}
		return &physical.Expr{
			Op: ops[g.r.Intn(len(ops))], JoinType: jt,
			Children:  []*physical.Expr{child, right},
			On:        on,
			EquiLeft:  []scalar.ColumnID{lk},
			EquiRight: []scalar.ColumnID{rk},
		}
	case 3:
		aggOps := []scalar.AggOp{scalar.AggCount, scalar.AggSum, scalar.AggMin, scalar.AggMax, scalar.AggAvg}
		n := 1 + g.r.Intn(3)
		aggs := make([]scalar.Agg, 0, n+1)
		aggs = append(aggs, scalar.Agg{Op: scalar.AggCountStar, Out: g.nextCol})
		g.nextCol++
		for i := 0; i < n; i++ {
			aggs = append(aggs, scalar.Agg{
				Op: aggOps[g.r.Intn(len(aggOps))], Arg: g.operand(cols), Out: g.nextCol,
			})
			g.nextCol++
		}
		var groupBy []scalar.ColumnID
		if g.r.Intn(4) != 0 {
			groupBy = []scalar.ColumnID{cols[g.r.Intn(len(cols))]}
		}
		op := physical.OpHashAgg
		if g.r.Intn(2) == 0 {
			op = physical.OpSortAgg
		}
		return &physical.Expr{Op: op, Children: []*physical.Expr{child}, GroupCols: groupBy, Aggs: aggs}
	case 4:
		keys := []logical.SortKey{{Col: cols[g.r.Intn(len(cols))], Desc: g.r.Intn(2) == 0}}
		return &physical.Expr{Op: physical.OpSort, Children: []*physical.Expr{child}, Keys: keys}
	case 5:
		return &physical.Expr{Op: physical.OpLimit, N: int64(1 + g.r.Intn(20)), Children: []*physical.Expr{child}}
	default:
		right := g.gen(depth - 1)
		rcols := right.OutputCols()
		w := len(cols)
		if len(rcols) < w {
			w = len(rcols)
		}
		out := make([]scalar.ColumnID, w)
		for i := range out {
			out[i] = g.nextCol
			g.nextCol++
		}
		return &physical.Expr{
			Op: physical.OpConcat, Children: []*physical.Expr{child, right},
			OutCols:   out,
			InputCols: [][]scalar.ColumnID{cols[:w], rcols[:w]},
		}
	}
}

// TestEngineDifferentialRandomPlans holds hundreds of random operator trees
// — every third over a table of several batches — to the reference engine at
// both batch sizes, then re-runs each plan under a ladder of work and row
// budgets. Without a Limit the verdicts are identical: same rows, or
// ErrRowLimit on both sides. Under a Limit a child hands up a whole batch
// where EngineRow hands up one row, so EngineBatch's work is never less:
// EngineBatch trips whenever EngineRow does, and the rows are equal whenever
// neither trips.
func TestEngineDifferentialRandomPlans(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	isCap := func(err error) bool { return errors.Is(err, ErrRowLimit) }
	for seed := 0; seed < seeds; seed++ {
		g := &planGen{r: rand.New(rand.NewSource(int64(seed))), cat: catalog.New(), nextCol: 1}
		if seed%3 == 0 {
			g.big = 1
		}
		plan := g.gen(3)
		want := runEngines(t, plan, g.cat)

		for _, maxWork := range []int64{1, 7, 64, 1000, 50000} {
			rowRows, rowErr := RunEngine(EngineRow, plan, g.cat, 0, maxWork)
			batchRows, batchErr := RunEngine(EngineBatch, plan, g.cat, 0, maxWork)
			if (rowErr != nil && !isCap(rowErr)) || (batchErr != nil && !isCap(batchErr)) {
				t.Fatalf("seed %d maxWork %d: unexpected errors %v / %v", seed, maxWork, rowErr, batchErr)
			}
			if rowErr != nil && batchErr == nil {
				t.Fatalf("seed %d maxWork %d: row engine tripped, batch engine did not", seed, maxWork)
			}
			if rowErr == nil && batchErr != nil && !hasLimit(plan) {
				t.Fatalf("seed %d maxWork %d: batch engine tripped on a plan without a Limit, row engine did not", seed, maxWork)
			}
			if rowErr == nil && batchErr == nil {
				requireSameRows(t, rowRows, batchRows)
			}
		}
		if len(want) > 1 {
			maxRows := len(want) / 2
			_, rowErr := RunEngine(EngineRow, plan, g.cat, maxRows, 0)
			_, batchErr := RunEngine(EngineBatch, plan, g.cat, maxRows, 0)
			if !isCap(rowErr) || !isCap(batchErr) {
				t.Fatalf("seed %d maxRows %d: want ErrRowLimit on both, got %v / %v",
					seed, maxRows, rowErr, batchErr)
			}
		}
	}
}

// narrow projects one or two of child's columns, now and then one of them
// through arithmetic: a consumer that reads few of the columns below it.
func (g *planGen) narrow(child *physical.Expr) *physical.Expr {
	cols := child.OutputCols()
	projs := make([]logical.ProjItem, 1+g.r.Intn(2))
	for i := range projs {
		var e scalar.Expr = &scalar.ColRef{ID: cols[g.r.Intn(len(cols))]}
		if g.r.Intn(4) == 0 {
			e = &scalar.Arith{Op: scalar.ArithAdd, L: e, R: g.operand(cols)}
		}
		projs[i] = logical.ProjItem{Out: g.nextCol, E: e}
		g.nextCol++
	}
	return &physical.Expr{Op: physical.OpProject, Children: []*physical.Expr{child}, Projs: projs}
}

// narrowCase is one plan of the narrow-plan corpus with the database it runs
// on.
type narrowCase struct {
	name string
	plan *physical.Expr
	cat  *catalog.Catalog
}

// narrowPlans is the narrow-plan corpus: per seed, a narrow projection over a
// join, a merge join, a sort or a concat of random subtrees, now and then
// under a filter and a second projection, every third seed over a table of
// several batches. Under -short it draws a quarter of the seeds.
func narrowPlans() []narrowCase {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	var out []narrowCase
	for seed := 0; seed < seeds; seed++ {
		for _, kind := range []string{"join", "merge join", "sort", "concat"} {
			g := &planGen{r: rand.New(rand.NewSource(int64(seed))), cat: catalog.New(), nextCol: 1}
			if seed%3 == 0 {
				g.big = 1
			}
			var plan *physical.Expr
			switch kind {
			case "join":
				plan = g.op(3, 2)
			case "merge join":
				plan = g.op(3, 2)
				plan.Op, plan.JoinType = physical.OpMergeJoin, physical.JoinInner
			case "sort":
				plan = g.op(3, 4)
			case "concat":
				plan = g.op(3, 6)
			}
			plan = g.narrow(plan)
			if seed%2 == 0 {
				plan = g.narrow(&physical.Expr{
					Op: physical.OpFilter, Children: []*physical.Expr{plan},
					Filter: g.pred(plan.OutputCols(), 1),
				})
			}
			out = append(out, narrowCase{fmt.Sprintf("%s/%d", kind, seed), plan, g.cat})
		}
	}
	return out
}

// TestEngineDifferentialNarrowPlans holds the narrow-plan corpus — plans
// whose consumers read few columns — to the reference engine at both batch
// sizes. The batch operators copy only the columns read above an operator, so
// every column a join, build side or sort skips is one nothing above it may
// read.
func TestEngineDifferentialNarrowPlans(t *testing.T) {
	for _, tc := range narrowPlans() {
		t.Run(tc.name, func(t *testing.T) { runEngines(t, tc.plan, tc.cat) })
	}
}

// TestBatchSizeInvariance runs the conformance corpus and the narrow-plan
// corpus one row per batch (EngineRow) and batchSize rows per batch
// (EngineBatch). Both must emit the same rows in the same order. On a plan
// without a Limit every operator drains its input, so both must also count
// the same rows per operator under ANALYZE and give the same ErrRowLimit
// outcomes: the work total is the sum of those counts, and a budget one row
// short of it, or a row cap one row short of the result, trips both where the
// exact figure passes both.
func TestBatchSizeInvariance(t *testing.T) {
	cases := narrowPlans()
	conf := confCatalog()
	for _, tc := range conformanceCases() {
		cases = append(cases, narrowCase{"conformance/" + tc.name, tc.plan, conf})
	}
	engs := []Engine{EngineRow, EngineBatch}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rows [2][]datum.Row
			var acts [2][]int64
			for i, eng := range engs {
				acts[i] = make([]int64, tc.plan.CountOps())
				var err error
				if rows[i], err = Compile(eng, tc.plan).run(runState{cat: tc.cat, acts: acts[i]}, 0); err != nil {
					t.Fatalf("%s engine: %v", eng, err)
				}
			}
			requireSameRows(t, rows[0], rows[1])
			if hasLimit(tc.plan) {
				return
			}
			if !slices.Equal(acts[0], acts[1]) {
				t.Fatalf("ANALYZE counts %v one row per batch, %v at batchSize", acts[0], acts[1])
			}
			var work int64
			for _, n := range acts[0] {
				work += n
			}
			n := len(rows[0])
			for _, c := range []struct {
				maxRows int
				maxWork int64
				trip    bool
			}{
				{0, work - 1, work > 1}, {0, work, false},
				{n - 1, 0, n > 1}, {n, 0, false},
			} {
				for _, eng := range engs {
					got, err := RunEngine(eng, tc.plan, tc.cat, c.maxRows, c.maxWork)
					if tripped := errors.Is(err, ErrRowLimit); tripped != c.trip || (err != nil && !tripped) {
						t.Fatalf("%s engine, maxRows %d, maxWork %d of %d: err = %v, want a trip: %v", eng, c.maxRows, c.maxWork, work, err, c.trip)
					}
					if err == nil {
						requireSameRows(t, rows[0], got)
					}
				}
			}
		})
	}
}

// TestLimitWorkIsEngineSpecific pins the one place the engines' budget
// verdicts may differ, with RunEngine's own example: LIMIT 1 over a filter
// over a 5000-row scan at maxWork=100 completes one row per batch (three rows
// of work) and trips at batchSize rows per batch, where the scan emits a whole
// batch.
func TestLimitWorkIsEngineSpecific(t *testing.T) {
	cat := catalog.New()
	cat.Add(randomTable("wide", 3, 5000, 1))
	plan := &physical.Expr{Op: physical.OpLimit, N: 1, Children: []*physical.Expr{{
		Op: physical.OpFilter, Filter: &scalar.Not{Kid: &scalar.IsNull{Kid: &scalar.ColRef{ID: 1}}},
		Children: []*physical.Expr{{Op: physical.OpScan, Table: "wide", Cols: []scalar.ColumnID{1, 2, 3}}},
	}}}
	want := runEngines(t, plan, cat)
	rows, err := RunEngine(EngineRow, plan, cat, 0, 100)
	if err != nil {
		t.Fatalf("row engine: %v", err)
	}
	requireSameRows(t, want, rows)
	if _, err := RunEngine(EngineBatch, plan, cat, 0, 100); !errors.Is(err, ErrRowLimit) {
		t.Fatalf("batch engine: err = %v, want ErrRowLimit", err)
	}
	// With room for one batch per operator below the Limit the verdicts agree.
	rows, err = RunEngine(EngineBatch, plan, cat, 0, 2*batchSize+1)
	if err != nil {
		t.Fatalf("batch engine, budget of two batches: %v", err)
	}
	requireSameRows(t, want, rows)
}

// walkOps calls visit on every operator and tap of a compiled tree.
func walkOps(v reflect.Value, visit func(op reflect.Value)) {
	for v.Kind() == reflect.Interface || v.Kind() == reflect.Ptr {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	switch v.Kind() {
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			walkOps(v.Index(i), visit)
		}
	case reflect.Struct:
		visit(v)
		for i := 0; i < v.NumField(); i++ {
			switch v.Field(i).Type() {
			case reflect.TypeOf((*BatchIterator)(nil)).Elem(), reflect.TypeOf([]BatchIterator(nil)):
				walkOps(v.Field(i), visit)
			}
		}
	}
}

// TestEnginesCompileTheirOwnOperators: both built-in engines compile the one
// batch operator set — the same operators, a tap above each, and a merge
// join on both to the hash join over an untapped sort of its probe side — and
// differ only in how many rows per batch their scans, sorts and aggregates (a
// merge join's sort among them) emit: one under EngineRow, batchSize under
// EngineBatch. The benchmark's per-engine timings rely on it.
func TestEnginesCompileTheirOwnOperators(t *testing.T) {
	cat := testCatalog()
	// compiled counts the operator types eng compiles plan to.
	compiled := func(eng Engine, plan *physical.Expr) map[string]int {
		t.Helper()
		p := Compile(eng, plan)
		tr, err := p.compile()
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		got := map[string]int{}
		walkOps(reflect.ValueOf(tr.batches), func(op reflect.Value) {
			name := op.Type().Name()
			got[name]++
			switch name {
			case "batchScan", "batchSort", "batchAgg":
				if n := op.FieldByName("n").Int(); n != int64(p.batch) {
					t.Errorf("%s engine compiled a %s of %d rows per batch, want %d", eng, name, n, p.batch)
				}
			}
		})
		return got
	}
	if b, r := Compile(EngineBatch, scanT1()).batch, Compile(EngineRow, scanT1()).batch; b != batchSize || r != 1 {
		t.Fatalf("rows per batch: %d on the batch engine, %d on the row engine; want %d and 1", b, r, batchSize)
	}
	aggs := &physical.Expr{Op: physical.OpLimit, N: 3, Children: []*physical.Expr{sortPlan(&physical.Expr{
		Op: physical.OpSortAgg, GroupCols: []scalar.ColumnID{9},
		Aggs: []scalar.Agg{{Op: scalar.AggCountStar, Out: 11}},
		Children: []*physical.Expr{{
			Op: physical.OpHashAgg, GroupCols: []scalar.ColumnID{9, 4},
			Aggs: []scalar.Agg{{Op: scalar.AggCountStar, Out: 10}},
			Children: []*physical.Expr{{
				Op: physical.OpProject, Projs: []logical.ProjItem{{Out: 9, E: &scalar.ColRef{ID: 1}}, {Out: 4, E: &scalar.ColRef{ID: 4}}},
				Children: []*physical.Expr{{
					Op: physical.OpFilter, Filter: &scalar.Not{Kid: &scalar.IsNull{Kid: &scalar.ColRef{ID: 4}}},
					Children: []*physical.Expr{joinPlan(physical.OpHashJoin, physical.JoinInner)},
				}},
			}},
		}},
	}, logical.SortKey{Col: 9})}}
	union := limitPlan(&physical.Expr{
		Op: physical.OpConcat, Children: []*physical.Expr{joinPlan(physical.OpMergeJoin, physical.JoinInner), scanT1()},
		OutCols: []scalar.ColumnID{30, 31}, InputCols: [][]scalar.ColumnID{{2, 3}, {1, 2}},
	}, 4)
	for _, tc := range []struct {
		name  string
		plan  *physical.Expr
		types map[string]int // operator types compiled, taps aside
		ops   int            // taps: the plan's operators, not a merge join's sort
	}{
		{"aggregates", aggs,
			map[string]int{"batchLimit": 1, "batchSort": 1, "batchAgg": 2, "batchProject": 1, "batchFilter": 1, "batchJoin": 1, "batchScan": 2},
			9},
		{"merge join under concat", union,
			map[string]int{"batchLimit": 1, "batchConcat": 1, "batchJoin": 1, "batchSort": 1, "batchScan": 3},
			6},
	} {
		runEngines(t, tc.plan, cat)
		want := maps.Clone(tc.types)
		want["batchTap"] = tc.ops
		for _, eng := range []Engine{EngineRow, EngineBatch} {
			if got := compiled(eng, tc.plan); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s engine: compiled %v, want %v", tc.name, eng, got, want)
			}
		}
		if n := tc.plan.CountOps(); n != tc.ops {
			t.Errorf("%s: %d plan operators, %d tapped", tc.name, n, tc.ops)
		}
	}

	// Nested loops is the keyless case of the columnar join.
	for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
		nl := joinPlan(physical.OpNLJoin, jt)
		nl.Children[0] = filterOf(scanT1(), cmpExpr(scalar.CmpGT, col(2), intc(5)))
		want := map[string]int{"batchJoin": 1, "batchFilter": 1, "batchScan": 2, "batchTap": 4}
		for _, eng := range []Engine{EngineRow, EngineBatch} {
			if got := compiled(eng, nl); !reflect.DeepEqual(got, want) {
				t.Errorf("%s engine, %s nested-loops join: compiled %v, want %v", eng, jt, got, want)
			}
		}
	}
}

// TestSumAvgNonNumericErrors pins the aggregate-typing fix: SUM and AVG over
// a non-numeric input must fail execution instead of silently returning 0.0,
// identically on both engines.
func TestSumAvgNonNumericErrors(t *testing.T) {
	cat := testCatalog()
	for _, op := range []scalar.AggOp{scalar.AggSum, scalar.AggAvg} {
		plan := &physical.Expr{
			Op: physical.OpHashAgg, Children: []*physical.Expr{scanT2()},
			Aggs: []scalar.Agg{{Op: op, Arg: &scalar.ColRef{ID: 4}, Out: 10}},
		}
		for _, eng := range []Engine{EngineRow, EngineBatch} {
			_, err := RunEngine(eng, plan, cat, 0, 0)
			if err == nil {
				t.Fatalf("%s engine: %s over strings succeeded, want error", eng, op)
			}
			if !strings.Contains(err.Error(), "non-numeric") {
				t.Fatalf("%s engine: %s error = %q, want non-numeric typing error", eng, op, err)
			}
		}
	}
	// Grouped variant: the bad value sits in one group of several.
	plan := &physical.Expr{
		Op: physical.OpHashAgg, Children: []*physical.Expr{scanT2()},
		GroupCols: []scalar.ColumnID{3},
		Aggs:      []scalar.Agg{{Op: scalar.AggSum, Arg: &scalar.ColRef{ID: 4}, Out: 10}},
	}
	for _, eng := range []Engine{EngineRow, EngineBatch} {
		if _, err := RunEngine(eng, plan, cat, 0, 0); err == nil {
			t.Fatalf("%s engine: grouped SUM over strings succeeded, want error", eng)
		}
	}
}

// TestJoinPredicateErrorFailsBothEngines pins the error half of the engine
// contract for a join predicate with a data-dependent error site (a + y over
// t2's strings), as a hash join's residual and as a nested-loops predicate:
// both engines fail execution under every join type. Only the failure is
// pinned — the pairs a join evaluates at once depend on its probe batch, so
// with several error sites the two batch sizes may name different ones.
func TestJoinPredicateErrorFailsBothEngines(t *testing.T) {
	cat := testCatalog()
	bad := cmpExpr(scalar.CmpGT, &scalar.Arith{Op: scalar.ArithAdd, L: col(1), R: col(4)}, intc(0))
	for _, op := range []physical.Op{physical.OpHashJoin, physical.OpNLJoin} {
		for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
			plan := joinPlan(op, jt)
			plan.On = &scalar.And{Kids: []scalar.Expr{eqOn(), bad}}
			for _, eng := range []Engine{EngineRow, EngineBatch} {
				_, err := RunEngine(eng, plan, cat, 0, 0)
				if err == nil || !strings.Contains(err.Error(), "non-numeric") {
					t.Errorf("%s %s join on the %s engine: err = %v, want the predicate's typing error", jt, op, eng, err)
				}
			}
		}
	}
}

// TestMinMaxMixedKinds pins MIN/MAX semantics over mixed-kind inputs: they
// stay legal and order values by datum.TotalCompare, the same total order the
// sort operator and the comparison oracle use.
func TestMinMaxMixedKinds(t *testing.T) {
	cat := testCatalog()
	// UNION ALL of t1.a (ints + NULL) and t2.y (strings) produces one
	// mixed-kind column.
	concat := &physical.Expr{
		Op: physical.OpConcat, Children: []*physical.Expr{scanT1(), scanT2()},
		OutCols:   []scalar.ColumnID{50},
		InputCols: [][]scalar.ColumnID{{1}, {4}},
	}
	plan := &physical.Expr{
		Op: physical.OpHashAgg, Children: []*physical.Expr{concat},
		Aggs: []scalar.Agg{
			{Op: scalar.AggMin, Arg: &scalar.ColRef{ID: 50}, Out: 51},
			{Op: scalar.AggMax, Arg: &scalar.ColRef{ID: 50}, Out: 52},
		},
	}
	rows := runEngines(t, plan, cat)
	if len(rows) != 1 {
		t.Fatalf("scalar agg rows = %d", len(rows))
	}
	inputs, err := Run(concat, cat)
	if err != nil {
		t.Fatal(err)
	}
	wantMin, wantMax := datum.Null, datum.Null
	for _, r := range inputs {
		d := r[0]
		if d.IsNull() {
			continue
		}
		if wantMin.IsNull() || datum.TotalCompare(d, wantMin) < 0 {
			wantMin = d
		}
		if wantMax.IsNull() || datum.TotalCompare(d, wantMax) > 0 {
			wantMax = d
		}
	}
	if rows[0][0] != wantMin || rows[0][1] != wantMax {
		t.Fatalf("MIN/MAX = %v/%v, want %v/%v by TotalCompare", rows[0][0], rows[0][1], wantMin, wantMax)
	}
}

// TestMergeJoinNonInnerRejected pins that both engines, with and without a
// budget, reject a non-inner merge join through joinKeys' single guard.
func TestMergeJoinNonInnerRejected(t *testing.T) {
	cat := testCatalog()
	plan := joinPlan(physical.OpMergeJoin, physical.JoinLeft)
	for _, eng := range []Engine{EngineRow, EngineBatch} {
		if _, err := RunEngine(eng, plan, cat, 0, 1000); err == nil || errors.Is(err, ErrRowLimit) {
			t.Errorf("%s engine with budget: err = %v, want merge-join build error", eng, err)
		}
		if _, err := RunEngine(eng, plan, cat, 0, 0); err == nil {
			t.Errorf("%s engine: accepted a non-inner merge join", eng)
		}
	}
	if _, _, err := RunAnalyze(plan, cat); err == nil {
		t.Error("RunAnalyze accepted a non-inner merge join")
	}
}
