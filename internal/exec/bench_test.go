package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// benchCatalog builds the synthetic fact/dimension pair the engine
// benchmarks run over: "f" with rows fact rows and "d" with a tenth of that,
// both three int columns (a: 1000 distinct, b: 100 distinct, c: unique).
func benchCatalog(rows int) *catalog.Catalog {
	r := rand.New(rand.NewSource(1))
	c := catalog.New()
	for _, name := range []string{"f", "d"} {
		n := rows
		if name == "d" {
			n = rows / 10
		}
		t := &catalog.Table{Name: name, Columns: []catalog.Column{
			{Name: "a", Type: datum.TypeInt}, {Name: "b", Type: datum.TypeInt}, {Name: "c", Type: datum.TypeInt},
		}}
		for i := 0; i < n; i++ {
			t.Rows = append(t.Rows, datum.Row{
				datum.NewInt(int64(r.Intn(1000))), datum.NewInt(int64(r.Intn(100))), datum.NewInt(int64(i)),
			})
		}
		t.ComputeStats()
		c.Add(t)
	}
	return c
}

// benchPlans returns the per-operator plans the engine benchmarks execute,
// from bare scan up to aggregation over a join, plus nested-loops joins of a
// tenth of the dimension table with all of it (2.5M pairs): under a non-equi
// predicate that about one pair in a hundred passes, which compares every
// pair, and under d.a = d'.a, which the batch engine answers through the
// table's key index. The catalog must come from benchCatalog.
func benchPlans() []struct {
	name string
	plan *physical.Expr
} {
	scanF := &physical.Expr{Op: physical.OpScan, Table: "f", Cols: []scalar.ColumnID{1, 2, 3}}
	scanD := &physical.Expr{Op: physical.OpScan, Table: "d", Cols: []scalar.ColumnID{4, 5, 6}}
	filter := &physical.Expr{Op: physical.OpFilter, Children: []*physical.Expr{scanF},
		Filter: &scalar.Cmp{Op: scalar.CmpLT, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: datum.NewInt(50)}}}
	project := &physical.Expr{Op: physical.OpProject, Children: []*physical.Expr{filter},
		Projs: []logical.ProjItem{
			{Out: 9, E: &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 3}}},
			{Out: 10, E: &scalar.ColRef{ID: 2}},
		}}
	join := &physical.Expr{Op: physical.OpHashJoin, JoinType: physical.JoinInner,
		Children: []*physical.Expr{filter, scanD},
		On:       &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 1}, R: &scalar.ColRef{ID: 4}},
		EquiLeft: []scalar.ColumnID{1}, EquiRight: []scalar.ColumnID{4}}
	agg := &physical.Expr{Op: physical.OpHashAgg, Children: []*physical.Expr{join},
		GroupCols: []scalar.ColumnID{5},
		Aggs: []scalar.Agg{
			{Op: scalar.AggCountStar, Out: 20},
			{Op: scalar.AggSum, Arg: &scalar.ColRef{ID: 3}, Out: 21},
		}}
	// d.b has 100 distinct values: b + b' < 13 holds for 91 of 10 000 value pairs.
	sumLT13 := &scalar.Cmp{Op: scalar.CmpLT,
		L: &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 8}, R: &scalar.ColRef{ID: 5}},
		R: &scalar.Const{D: datum.NewInt(13)}}
	aEq := &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: 7}, R: &scalar.ColRef{ID: 4}}
	nl := func(jt physical.JoinType, on scalar.Expr) *physical.Expr {
		return &physical.Expr{Op: physical.OpNLJoin, JoinType: jt,
			Children: []*physical.Expr{{
				Op: physical.OpFilter, Children: []*physical.Expr{{Op: physical.OpScan, Table: "d", Cols: []scalar.ColumnID{7, 8, 9}}},
				Filter: &scalar.Cmp{Op: scalar.CmpLT, L: &scalar.ColRef{ID: 9}, R: &scalar.Const{D: datum.NewInt(500)}},
			}, scanD},
			On: on}
	}
	return []struct {
		name string
		plan *physical.Expr
	}{
		{"scan", scanF}, {"filter", filter}, {"project", project}, {"join", join}, {"agg", agg},
		{"nljoin", nl(physical.JoinInner, sumLT13)}, {"nljoin-semi", nl(physical.JoinSemi, sumLT13)},
		{"nljoin-equi", nl(physical.JoinInner, aEq)}, {"nljoin-equi-anti", nl(physical.JoinAnti, aEq)},
	}
}

// BenchmarkEngineOps measures each hot operator on the row and batch engines
// over a 50k-row synthetic table.
func BenchmarkEngineOps(b *testing.B) {
	cat := benchCatalog(50000)
	for _, p := range benchPlans() {
		for _, eng := range []Engine{EngineRow, EngineBatch} {
			b.Run(fmt.Sprintf("%s/%s", p.name, eng), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := RunEngine(eng, p.plan, cat, 0, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
