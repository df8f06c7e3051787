package exec

import (
	"fmt"
	"math"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// confCatalog is testCatalog plus a FLOAT table for the numeric-widening
// cases and one with a NaN for the join-key cases:
//
//	t3(f): 1.0, 2.5
//	tn(g, tag): (NaN,'nan') (2.0,'two') (7.5,'miss')
func confCatalog() *catalog.Catalog {
	c := testCatalog()
	t3 := &catalog.Table{
		Name:    "t3",
		Columns: []catalog.Column{{Name: "f", Type: datum.TypeFloat}},
		Rows: []datum.Row{
			{datum.NewFloat(1.0)},
			{datum.NewFloat(2.5)},
		},
	}
	t3.ComputeStats()
	c.Add(t3)
	tn := &catalog.Table{
		Name:    "tn",
		Columns: []catalog.Column{{Name: "g", Type: datum.TypeFloat}, {Name: "tag", Type: datum.TypeString}},
		Rows: []datum.Row{
			{datum.NewFloat(math.NaN()), datum.NewString("nan")},
			{datum.NewFloat(2.0), datum.NewString("two")},
			{datum.NewFloat(7.5), datum.NewString("miss")},
		},
	}
	tn.ComputeStats()
	c.Add(tn)
	return c
}

func scanT3() *physical.Expr {
	return &physical.Expr{Op: physical.OpScan, Table: "t3", Cols: []scalar.ColumnID{5}}
}

func scanTN() *physical.Expr {
	return &physical.Expr{Op: physical.OpScan, Table: "tn", Cols: []scalar.ColumnID{6, 7}}
}

func col(id scalar.ColumnID) scalar.Expr { return &scalar.ColRef{ID: id} }
func intc(v int64) scalar.Expr           { return &scalar.Const{D: datum.NewInt(v)} }
func cmpExpr(op scalar.CmpOp, l, r scalar.Expr) scalar.Expr {
	return &scalar.Cmp{Op: op, L: l, R: r}
}

func filterOf(child *physical.Expr, pred scalar.Expr) *physical.Expr {
	return &physical.Expr{Op: physical.OpFilter, Children: []*physical.Expr{child}, Filter: pred}
}

// emptyT1 filters t1 down to zero rows (b > 1000 never holds).
func emptyT1() *physical.Expr {
	return filterOf(scanT1(), cmpExpr(scalar.CmpGT, col(2), intc(1000)))
}

// nlPlan is a nested-loops join of t1 with the given build side.
func nlPlan(jt physical.JoinType, build *physical.Expr, on scalar.Expr) *physical.Expr {
	return &physical.Expr{Op: physical.OpNLJoin, JoinType: jt, Children: []*physical.Expr{scanT1(), build}, On: on}
}

func row(ds ...datum.Datum) datum.Row { return datum.Row(ds) }

// engines is every engine the conformance suite runs: the two built-ins and
// the reference engine behind RunTree.
var engines = []Engine{EngineRow, EngineBatch, EngineRef}

// TestBackendConformance executes one table of (plan, expected-rows) cases on
// every engine — row, batch and the reference engine (ref) — from a
// single test, pinning the semantics the backends must agree on: 3VL
// predicate evaluation, NULL grouping, NULL join keys (hash) and join
// predicates (nested loops), NaN join keys (every operator), empty-input
// aggregates, LIMIT, sort stability and NULL placement, and numeric-kind
// widening of group keys. A case whose plan has a root order (RootOrder) compares the
// output row-for-row, which pins the sort-key slots and stability with them;
// the others compare after NormalizeRows on both sides.
func TestBackendConformance(t *testing.T) {
	cat := confCatalog()
	for _, tc := range conformanceCases() {
		for _, eng := range engines {
			t.Run(tc.name+"/"+eng.String(), func(t *testing.T) {
				got, err := RunEngine(eng, tc.plan, cat, 0, 0)
				if err != nil {
					t.Fatalf("RunEngine(%v): %v", eng, err)
				}
				want := tc.want
				if !RootOrder(tc.plan).Sorted {
					got = NormalizeRows(got)
					want = NormalizeRows(want)
				}
				if len(got) != len(want) {
					t.Fatalf("rows = %d, want %d\ngot: %v\nwant: %v", len(got), len(want), got, want)
				}
				for i := range want {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("row %d width = %d, want %d", i, len(got[i]), len(want[i]))
					}
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("row %d col %d = %v, want %v\ngot: %v", i, j, got[i][j], want[i][j], got)
						}
					}
				}
			})
		}
	}
}

// conformanceCase is one plan of the conformance suite with the rows every
// engine must answer over confCatalog.
type conformanceCase struct {
	name string
	plan *physical.Expr
	want []datum.Row
}

func conformanceCases() []conformanceCase {
	ni, nf, null := datum.NewInt, datum.NewFloat, datum.Null
	aLessX := cmpExpr(scalar.CmpLT, col(1), col(3))
	return append([]conformanceCase{
		{
			// b > 15: (3,NULL) evaluates UNKNOWN and is dropped.
			name: "3vl-filter-drops-unknown",
			plan: filterOf(scanT1(), cmpExpr(scalar.CmpGT, col(2), intc(15))),
			want: []datum.Row{row(ni(2), ni(20)), row(null, ni(40))},
		},
		{
			// NOT(b > 15): NOT UNKNOWN is still UNKNOWN, so (3,NULL) stays out
			// of both the filter and its negation.
			name: "3vl-not-unknown-stays-unknown",
			plan: filterOf(scanT1(), &scalar.Not{Kid: cmpExpr(scalar.CmpGT, col(2), intc(15))}),
			want: []datum.Row{row(ni(1), ni(10))},
		},
		{
			// a = 1 OR b > 100: the (NULL,40) row is UNKNOWN OR FALSE = UNKNOWN.
			name: "3vl-or-with-null",
			plan: filterOf(scanT1(), &scalar.Or{Kids: []scalar.Expr{
				cmpExpr(scalar.CmpEQ, col(1), intc(1)),
				cmpExpr(scalar.CmpGT, col(2), intc(100)),
			}}),
			want: []datum.Row{row(ni(1), ni(10))},
		},
		{
			name: "is-null-selects-null-row",
			plan: filterOf(scanT1(), &scalar.IsNull{Kid: col(1)}),
			want: []datum.Row{row(null, ni(40))},
		},
		{
			// NULL join keys never match; a=1 matches twice, a=3 once.
			name: "inner-join-null-keys",
			plan: joinPlan(physical.OpHashJoin, physical.JoinInner),
			want: []datum.Row{
				row(ni(1), ni(10), ni(1), datum.NewString("one")),
				row(ni(1), ni(10), ni(1), datum.NewString("uno")),
				row(ni(3), null, ni(3), datum.NewString("three")),
			},
		},
		{
			// A merge join is inner: key groups in key order, NULL keys dropped.
			name: "merge-join-null-keys",
			plan: joinPlan(physical.OpMergeJoin, physical.JoinInner),
			want: []datum.Row{
				row(ni(1), ni(10), ni(1), datum.NewString("one")),
				row(ni(1), ni(10), ni(1), datum.NewString("uno")),
				row(ni(3), null, ni(3), datum.NewString("three")),
			},
		},
		{
			// Unmatched left rows — including the NULL-key one — pad with NULLs.
			name: "left-join-pads-unmatched",
			plan: joinPlan(physical.OpHashJoin, physical.JoinLeft),
			want: []datum.Row{
				row(ni(1), ni(10), ni(1), datum.NewString("one")),
				row(ni(1), ni(10), ni(1), datum.NewString("uno")),
				row(ni(3), null, ni(3), datum.NewString("three")),
				row(ni(2), ni(20), null, null),
				row(null, ni(40), null, null),
			},
		},
		{
			// Semi emits each matching left row once even with two matches.
			name: "semi-join-no-duplicates",
			plan: joinPlan(physical.OpHashJoin, physical.JoinSemi),
			want: []datum.Row{row(ni(1), ni(10)), row(ni(3), null)},
		},
		{
			// Anti keeps the NULL-key left row: NULL = x is UNKNOWN, not a match.
			name: "anti-join-keeps-null-key",
			plan: joinPlan(physical.OpHashJoin, physical.JoinAnti),
			want: []datum.Row{row(ni(2), ni(20)), row(null, ni(40))},
		},
		{
			// Nested loops, a < x: a NULL on either side is UNKNOWN, never a match.
			name: "nl-inner-non-equi",
			plan: nlPlan(physical.JoinInner, scanT2(), aLessX),
			want: []datum.Row{
				row(ni(1), ni(10), ni(3), datum.NewString("three")),
				row(ni(2), ni(20), ni(3), datum.NewString("three")),
			},
		},
		{
			name: "nl-left-non-equi",
			plan: nlPlan(physical.JoinLeft, scanT2(), aLessX),
			want: []datum.Row{
				row(ni(1), ni(10), ni(3), datum.NewString("three")),
				row(ni(2), ni(20), ni(3), datum.NewString("three")),
				row(ni(3), null, null, null),
				row(null, ni(40), null, null),
			},
		},
		{
			name: "nl-semi-non-equi",
			plan: nlPlan(physical.JoinSemi, scanT2(), aLessX),
			want: []datum.Row{row(ni(1), ni(10)), row(ni(2), ni(20))},
		},
		{
			name: "nl-anti-non-equi",
			plan: nlPlan(physical.JoinAnti, scanT2(), aLessX),
			want: []datum.Row{row(ni(3), null), row(null, ni(40))},
		},
		{
			// No build row at all: every probe row is fallout.
			name: "nl-left-empty-build",
			plan: nlPlan(physical.JoinLeft, filterOf(scanT2(), cmpExpr(scalar.CmpGT, col(3), intc(1000))), aLessX),
			want: []datum.Row{
				row(ni(1), ni(10), null, null), row(ni(2), ni(20), null, null),
				row(ni(3), null, null, null), row(null, ni(40), null, null),
			},
		},
		{
			// ON TRUE is the cross product, NULL rows included.
			name: "nl-cross-on-true",
			plan: nlPlan(physical.JoinInner, scanT3(), &scalar.Const{D: datum.NewBool(true)}),
			want: []datum.Row{
				row(ni(1), ni(10), nf(1.0)), row(ni(1), ni(10), nf(2.5)),
				row(ni(2), ni(20), nf(1.0)), row(ni(2), ni(20), nf(2.5)),
				row(ni(3), null, nf(1.0)), row(ni(3), null, nf(2.5)),
				row(null, ni(40), nf(1.0)), row(null, ni(40), nf(2.5)),
			},
		},
		{
			// NULL forms its own group; COUNT(b) skips NULL b, SUM(NULL-only)
			// is NULL.
			name: "null-grouping-and-agg-nulls",
			plan: &physical.Expr{
				Op: physical.OpHashAgg, Children: []*physical.Expr{scanT1()},
				GroupCols: []scalar.ColumnID{1},
				Aggs: []scalar.Agg{
					{Op: scalar.AggCountStar, Out: 10},
					{Op: scalar.AggCount, Arg: col(2), Out: 11},
					{Op: scalar.AggSum, Arg: col(2), Out: 12},
				},
			},
			want: []datum.Row{
				row(ni(1), ni(1), ni(1), ni(10)),
				row(ni(2), ni(1), ni(1), ni(20)),
				row(ni(3), ni(1), ni(0), null),
				row(null, ni(1), ni(1), ni(40)),
			},
		},
		{
			// Scalar aggregate over empty input: one row, COUNT 0, others NULL.
			name: "empty-input-scalar-agg",
			plan: &physical.Expr{
				Op: physical.OpHashAgg, Children: []*physical.Expr{emptyT1()},
				Aggs: []scalar.Agg{
					{Op: scalar.AggCountStar, Out: 10},
					{Op: scalar.AggCount, Arg: col(2), Out: 11},
					{Op: scalar.AggSum, Arg: col(2), Out: 12},
					{Op: scalar.AggMin, Arg: col(2), Out: 13},
					{Op: scalar.AggMax, Arg: col(2), Out: 14},
					{Op: scalar.AggAvg, Arg: col(2), Out: 15},
				},
			},
			want: []datum.Row{row(ni(0), ni(0), null, null, null, null)},
		},
		{
			// Grouped aggregate over empty input: zero rows.
			name: "empty-input-grouped-agg",
			plan: &physical.Expr{
				Op: physical.OpHashAgg, Children: []*physical.Expr{emptyT1()},
				GroupCols: []scalar.ColumnID{1},
				Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: 10}},
			},
			want: nil,
		},
		{
			// Ascending sort puts NULL first; the root order pins it.
			name: "sort-asc-nulls-first",
			plan: &physical.Expr{
				Op: physical.OpSort, Children: []*physical.Expr{scanT1()},
				Keys: []logical.SortKey{{Col: 1}},
			},
			want: []datum.Row{
				row(null, ni(40)), row(ni(1), ni(10)), row(ni(2), ni(20)), row(ni(3), null),
			},
		},
		{
			// Descending sort reverses the total order, so NULL lands last.
			name: "sort-desc-nulls-last",
			plan: &physical.Expr{
				Op: physical.OpSort, Children: []*physical.Expr{scanT1()},
				Keys: []logical.SortKey{{Col: 1, Desc: true}},
			},
			want: []datum.Row{
				row(ni(3), null), row(ni(2), ni(20)), row(ni(1), ni(10)), row(null, ni(40)),
			},
		},
		{
			// Stable sort: the tied x=1 rows keep their table order (one, uno).
			name: "sort-stability-on-ties",
			plan: &physical.Expr{
				Op: physical.OpSort, Children: []*physical.Expr{scanT2()},
				Keys: []logical.SortKey{{Col: 3}},
			},
			want: []datum.Row{
				row(null, datum.NewString("null")),
				row(ni(1), datum.NewString("one")),
				row(ni(1), datum.NewString("uno")),
				row(ni(3), datum.NewString("three")),
			},
		},
		{
			// LIMIT under the input size, after a total-order sort.
			name: "limit-under",
			plan: &physical.Expr{
				Op: physical.OpLimit, N: 2,
				Children: []*physical.Expr{{
					Op: physical.OpSort, Children: []*physical.Expr{scanT1()},
					Keys: []logical.SortKey{{Col: 1}},
				}},
			},
			want: []datum.Row{row(null, ni(40)), row(ni(1), ni(10))},
		},
		{
			// LIMIT over the input size passes everything through.
			name: "limit-over",
			plan: &physical.Expr{Op: physical.OpLimit, N: 10, Children: []*physical.Expr{scanT1()}},
			want: []datum.Row{
				row(ni(1), ni(10)), row(ni(2), ni(20)), row(ni(3), null), row(null, ni(40)),
			},
		},
		{
			// UNION ALL of an INT and a FLOAT column, then GROUP BY: INT 1 and
			// FLOAT 1.0 widen to the same group key, and the group's
			// representative keeps the first appearance's kind (INT).
			name: "union-widens-group-keys",
			plan: &physical.Expr{
				Op: physical.OpHashAgg,
				Children: []*physical.Expr{{
					Op:        physical.OpConcat,
					Children:  []*physical.Expr{scanT1(), scanT3()},
					OutCols:   []scalar.ColumnID{20},
					InputCols: [][]scalar.ColumnID{{1}, {5}},
				}},
				GroupCols: []scalar.ColumnID{20},
				Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: 21}},
			},
			want: []datum.Row{
				row(ni(1), ni(2)), // INT 1 and FLOAT 1.0 fold together
				row(ni(2), ni(1)),
				row(ni(3), ni(1)),
				row(nf(2.5), ni(1)),
				row(null, ni(1)),
			},
		},
		{
			// MIN/MAX over the widened column: MIN is NULL-skipping INT 1 (not
			// FLOAT 1.0 — first smallest wins), MAX is INT 3.
			name: "min-max-over-mixed-kinds",
			plan: &physical.Expr{
				Op: physical.OpHashAgg,
				Children: []*physical.Expr{{
					Op:        physical.OpConcat,
					Children:  []*physical.Expr{scanT1(), scanT3()},
					OutCols:   []scalar.ColumnID{20},
					InputCols: [][]scalar.ColumnID{{1}, {5}},
				}},
				Aggs: []scalar.Agg{
					{Op: scalar.AggMin, Arg: col(20), Out: 21},
					{Op: scalar.AggMax, Arg: col(20), Out: 22},
				},
			},
			want: []datum.Row{row(ni(1), ni(3))},
		},
	}, nanJoinCases()...)
}

// nanJoinCases join t1 and tn on a = g with the NaN on the build side (t1
// probes tn) and on the probe side (tn probes t1), for every join type under
// hash and nested loops and for the inner merge join. Compare calls NaN equal
// to every number, so it matches a = 1, 2 and 3, and the answer is the same
// whichever operator computes it: a key index filing NaN apart from the
// numbers must not decide it.
func nanJoinCases() []conformanceCase {
	ni, nf, null, str := datum.NewInt, datum.NewFloat, datum.Null, datum.NewString
	nan := nf(math.NaN())
	join := func(op physical.Op, jt physical.JoinType, nanProbes bool) *physical.Expr {
		p := &physical.Expr{
			Op: op, JoinType: jt,
			Children: []*physical.Expr{scanT1(), scanTN()},
			On:       cmpExpr(scalar.CmpEQ, col(1), col(6)),
			EquiLeft: []scalar.ColumnID{1}, EquiRight: []scalar.ColumnID{6},
		}
		if nanProbes {
			p.Children = []*physical.Expr{scanTN(), scanT1()}
			p.EquiLeft, p.EquiRight = p.EquiRight, p.EquiLeft
		}
		return p
	}
	want := map[bool]map[physical.JoinType][]datum.Row{
		false: { // t1 probes the NaN
			physical.JoinInner: {
				row(ni(1), ni(10), nan, str("nan")), row(ni(2), ni(20), nan, str("nan")),
				row(ni(2), ni(20), nf(2), str("two")), row(ni(3), null, nan, str("nan")),
			},
			physical.JoinLeft: {
				row(ni(1), ni(10), nan, str("nan")), row(ni(2), ni(20), nan, str("nan")),
				row(ni(2), ni(20), nf(2), str("two")), row(ni(3), null, nan, str("nan")),
				row(null, ni(40), null, null),
			},
			physical.JoinSemi: {row(ni(1), ni(10)), row(ni(2), ni(20)), row(ni(3), null)},
			physical.JoinAnti: {row(null, ni(40))},
		},
		true: { // the NaN probes t1
			physical.JoinInner: {
				row(nan, str("nan"), ni(1), ni(10)), row(nan, str("nan"), ni(2), ni(20)),
				row(nan, str("nan"), ni(3), null), row(nf(2), str("two"), ni(2), ni(20)),
			},
			physical.JoinLeft: {
				row(nan, str("nan"), ni(1), ni(10)), row(nan, str("nan"), ni(2), ni(20)),
				row(nan, str("nan"), ni(3), null), row(nf(2), str("two"), ni(2), ni(20)),
				row(nf(7.5), str("miss"), null, null),
			},
			physical.JoinSemi: {row(nan, str("nan")), row(nf(2), str("two"))},
			physical.JoinAnti: {row(nf(7.5), str("miss"))},
		},
	}
	var cases []conformanceCase
	for _, nanProbes := range []bool{false, true} {
		side := "nan-build"
		if nanProbes {
			side = "nan-probe"
		}
		for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
			ops := []physical.Op{physical.OpHashJoin, physical.OpNLJoin}
			if jt == physical.JoinInner {
				ops = append(ops, physical.OpMergeJoin) // merge joins are inner only
			}
			for _, op := range ops {
				cases = append(cases, conformanceCase{
					name: fmt.Sprintf("%s-%s-%s", side, op, jt),
					plan: join(op, jt, nanProbes),
					want: want[nanProbes][jt],
				})
			}
		}
	}
	return cases
}
