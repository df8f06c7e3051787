package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// keyedCatalog builds the probe table kp (60 rows) and the build tables kb63,
// kb64 and kb320, all with the columns
//
//	n INT, f FLOAT, d DATE, s VARCHAR, g FLOAT, v INT, e VARCHAR
//
// drawn from small domains, so keys repeat, and holding the values a key
// index can get wrong: NULLs, INT = FLOAT = DATE across kinds, −0.0 and +0.0,
// 2⁵³ and 2⁵³+1 (one float64 image), strings built from AppendKey's
// separator bytes, and NaN in g. e is NULL except in kb320's last row, whose
// n is 999, a value kp never holds, and whose v is 1.
func keyedCatalog() *catalog.Catalog {
	r := rand.New(rand.NewSource(28))
	ni, nf, null := datum.NewInt, datum.NewFloat, datum.Null
	domains := [][]datum.Datum{
		{null, ni(0), ni(1), ni(2), ni(1 << 53), ni(1<<53 + 1)},
		{null, nf(0), nf(math.Copysign(0, -1)), nf(1), nf(2.5), nf(1 << 53)},
		{null, datum.NewDate(0), datum.NewDate(1), datum.NewDate(2)},
		{null, datum.NewString(""), datum.NewString("s1:"), datum.NewString("s1:s"), datum.NewString("i1;"), datum.NewString("n;")},
		{null, nf(math.NaN()), nf(1), nf(2)},
		{ni(0), ni(1), ni(2), ni(3), ni(4), ni(5)},
	}
	cols := []catalog.Column{
		{Name: "n", Type: datum.TypeInt}, {Name: "f", Type: datum.TypeFloat},
		{Name: "d", Type: datum.TypeDate}, {Name: "s", Type: datum.TypeString},
		{Name: "g", Type: datum.TypeFloat}, {Name: "v", Type: datum.TypeInt},
		{Name: "e", Type: datum.TypeString},
	}
	c := catalog.New()
	for _, tb := range []struct {
		name string
		rows int
	}{{"kp", 60}, {"kb63", 63}, {"kb64", 64}, {"kb320", 320}} {
		t := &catalog.Table{Name: tb.name, Columns: cols}
		for i := 0; i < tb.rows; i++ {
			row := make(datum.Row, 0, len(cols))
			for _, dom := range domains {
				row = append(row, dom[r.Intn(len(dom))])
			}
			t.Rows = append(t.Rows, append(row, null))
		}
		if tb.name == "kb320" {
			last := t.Rows[len(t.Rows)-1]
			last[0], last[5], last[6] = ni(999), ni(1), datum.NewString("x")
		}
		t.ComputeStats()
		c.Add(t)
	}
	return c
}

// pairsNLJoin is the all-pairs nested-loops reference for an NLJoin plan over
// a probe scan and a build side that is a scan, or a filter over one: for
// each probe row in table order, its build rows in order, each pair tested
// against the full On by predOne, a semi or anti join stopping at a
// probe row's first match. It returns the join's rows in that order and the
// rows each operator of the plan emits, in ANALYZE's order (children before
// their parent, left to right).
func pairsNLJoin(plan *physical.Expr, cat *catalog.Catalog) ([]datum.Row, []int64, error) {
	table := func(scan *physical.Expr) []datum.Row {
		t, err := cat.Table(scan.Table)
		if err != nil {
			panic(err)
		}
		return t.Rows
	}
	probe, build := plan.Children[0], plan.Children[1]
	lrows := table(probe)
	acts := []int64{int64(len(lrows))}
	var rrows []datum.Row
	if build.Op == physical.OpFilter {
		all := table(build.Children[0])
		acts = append(acts, int64(len(all)))
		env := envOf(build.Children[0].OutputCols())
		for _, r := range all {
			ok, err := predOne(build.Filter, r, env)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				rrows = append(rrows, r)
			}
		}
	} else {
		rrows = table(build)
	}
	acts = append(acts, int64(len(rrows)))
	env := envOf(slices.Concat(probe.OutputCols(), build.OutputCols()))
	var out []datum.Row
	for _, l := range lrows {
		matched := false
		for _, r := range rrows {
			pair := concatRows(l, r)
			ok, err := predOne(plan.On, pair, env)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
			matched = true
			if plan.JoinType == physical.JoinSemi || plan.JoinType == physical.JoinAnti {
				break
			}
			out = append(out, pair)
		}
		switch {
		case plan.JoinType == physical.JoinLeft && !matched:
			out = append(out, concatRows(l, nullRow(len(build.OutputCols()))))
		case plan.JoinType == physical.JoinSemi && matched, plan.JoinType == physical.JoinAnti && !matched:
			out = append(out, l)
		}
	}
	return out, append(acts, int64(len(out))), nil
}

// TestKeyedNestedLoopsMatchPairs holds the keyed nested-loops join — a join
// whose error-free On equates probe and build columns, indexed from 64 build
// rows — to pairsNLJoin, the all-pairs reference: identical rows in identical
// order and equal ANALYZE counts at both batch sizes, for every join type,
// over build sides of 63 (all pairs), 64 and 320 rows (indexed), as a bare
// scan (the catalog's index) and under a filter (an index built per run). An
// On that can fail — arithmetic over a string — is never keyed, so it fails
// on the engines exactly when it fails over all pairs.
func TestKeyedNestedLoopsMatchPairs(t *testing.T) {
	cat := keyedCatalog()
	probe := &physical.Expr{Op: physical.OpScan, Table: "kp", Cols: []scalar.ColumnID{1, 2, 3, 4, 5, 6, 7}}
	build := func(table string, filtered bool) *physical.Expr {
		b := &physical.Expr{Op: physical.OpScan, Table: table, Cols: []scalar.ColumnID{11, 12, 13, 14, 15, 16, 17}}
		if filtered {
			b = filterOf(b, cmpExpr(scalar.CmpNE, col(16), intc(0)))
		}
		return b
	}
	eq := func(l, r scalar.ColumnID) scalar.Expr { return cmpExpr(scalar.CmpEQ, col(l), col(r)) }
	and := func(kids ...scalar.Expr) scalar.Expr { return &scalar.And{Kids: kids} }
	preds := []struct {
		name  string
		on    scalar.Expr
		keyed bool
	}{
		{"int=float", eq(1, 12), true},
		{"date=int", eq(3, 11), true},
		{"float=date-build-first", eq(13, 2), true},
		{"string", eq(4, 14), true},
		{"nan-probe", eq(5, 12), true},
		{"nan-build", eq(1, 15), true},
		{"two-column", and(eq(1, 12), eq(4, 14)), true},
		{"residual", and(eq(1, 12), cmpExpr(scalar.CmpLE, col(6), col(16))), true},
		{"error-capable", and(eq(1, 11), cmpExpr(scalar.CmpGT,
			&scalar.Arith{Op: scalar.ArithAdd, L: col(17), R: intc(1)}, intc(0))), false},
	}
	failures := 0
	for _, table := range []string{"kb63", "kb64", "kb320"} {
		for _, filtered := range []bool{false, true} {
			for _, p := range preds {
				for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
					name := fmt.Sprintf("%s/filtered=%v/%s/%s", table, filtered, p.name, jt)
					plan := &physical.Expr{Op: physical.OpNLJoin, JoinType: jt,
						Children: []*physical.Expr{probe, build(table, filtered)}, On: p.on}
					t.Run(name, func(t *testing.T) {
						requireKeyedRun(t, plan, cat, p.keyed)
						want, wantActs, wantErr := pairsNLJoin(plan, cat)
						if wantErr != nil {
							failures++
						}
						for _, eng := range []Engine{EngineRow, EngineBatch} {
							acts := make([]int64, plan.CountOps())
							got, err := Compile(eng, plan).run(runState{cat: cat, acts: acts}, 0)
							if (err != nil) != (wantErr != nil) {
								t.Fatalf("%s engine error %v, all pairs %v", eng, err, wantErr)
							}
							if err != nil {
								continue
							}
							requireSameRows(t, want, got)
							if !slices.Equal(acts, wantActs) {
								t.Fatalf("ANALYZE on the %s engine: %v rows per operator, all pairs %v", eng, acts, wantActs)
							}
						}
					})
				}
			}
		}
	}
	// kb320's e = 'x' row passes the filter (its v is 1), so it is under both
	// builds of kb320: 4 join types x 2 build shapes.
	if failures != 8 {
		t.Errorf("%d joins failed over all pairs, want the 8 error-capable joins over kb320", failures)
	}
}

// requireKeyedRun opens plan's batch nested-loops join on cat and requires it
// to have a key exactly when keyed says, and to index its build side exactly
// when it has a key and at least keyedNLMinBuild build rows.
func requireKeyedRun(t *testing.T, plan *physical.Expr, cat *catalog.Catalog, keyed bool) {
	t.Helper()
	tr, err := Compile(EngineBatch, plan).compile()
	if err != nil {
		t.Fatal(err)
	}
	tr.runState = runState{cat: cat}
	j := untap(tr.batches).(*batchJoin)
	if j.keyed != keyed {
		t.Fatalf("join keyed = %v, want %v", j.keyed, keyed)
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if want := keyed && j.buildRows >= keyedNLMinBuild; (j.index != nil) != want {
		t.Fatalf("%d build rows: indexed = %v, want %v", j.buildRows, j.index != nil, want)
	}
}
