package scalar

import (
	"math/rand"
	"testing"

	"qtrtest/internal/datum"
)

// The EET tests run over a five-column schema that exercises every datum
// type the engines support: c1 INT, c2 FLOAT, c3 STRING, c4 BOOL, c5 DATE.
var eetColTypes = map[ColumnID]datum.Type{
	1: datum.TypeInt,
	2: datum.TypeFloat,
	3: datum.TypeString,
	4: datum.TypeBool,
	5: datum.TypeDate,
}

func eetTypeEnv(c ColumnID) (datum.Type, bool) {
	t, ok := eetColTypes[c]
	return t, ok
}

var eetEnv = Env{1: 0, 2: 1, 3: 2, 4: 3, 5: 4}

// randWideRows draws rows for the five-column schema with a NULL-heavy
// domain (~1/3 per column) so three-valued corner cases dominate.
func randWideRows(r *rand.Rand, n int) []datum.Row {
	rows := make([]datum.Row, n)
	for i := range rows {
		row := make(datum.Row, 5)
		gen := []func() datum.Datum{
			func() datum.Datum { return datum.NewInt(int64(r.Intn(9) - 4)) },
			func() datum.Datum { return datum.NewFloat(float64(r.Intn(16))/4 - 2) },
			func() datum.Datum { return datum.NewString(string(rune('a' + r.Intn(3)))) },
			func() datum.Datum { return datum.NewBool(r.Intn(2) == 0) },
			func() datum.Datum { return datum.NewDate(int64(r.Intn(7))) },
		}
		for c := range row {
			if r.Intn(3) == 0 {
				row[c] = datum.Null
			} else {
				row[c] = gen[c]()
			}
		}
		rows[i] = row
	}
	return rows
}

// randWidePred builds a random predicate over the five-column schema that
// type-checks under eetTypeEnv: arithmetic over int/float, comparisons only
// within a comparable family, bool leaves (column, constant, IS NULL),
// three-valued connectives and (double) negation on top.
func randWidePred(r *rand.Rand, depth int) Expr {
	intVal := func() Expr {
		switch r.Intn(4) {
		case 0:
			return &ColRef{ID: 1}
		case 1:
			return &Const{D: datum.NewInt(int64(r.Intn(9) - 4))}
		case 2:
			// Same-op nested chain: the shape eet-assoc-arith fires on.
			op := []ArithOp{ArithAdd, ArithMul}[r.Intn(2)]
			return &Arith{Op: op,
				L: &Arith{Op: op, L: &ColRef{ID: 1}, R: &Const{D: datum.NewInt(int64(r.Intn(5)))}},
				R: &Const{D: datum.NewInt(int64(r.Intn(5) + 1))}}
		default:
			return &Arith{Op: ArithOp(r.Intn(3)), L: &ColRef{ID: 1},
				R: &Const{D: datum.NewInt(int64(r.Intn(5)))}}
		}
	}
	numVal := func() Expr {
		switch r.Intn(5) {
		case 0:
			return &ColRef{ID: 2}
		case 1:
			return &Const{D: datum.NewFloat(float64(r.Intn(8)) / 2)}
		case 2:
			return &ColRef{ID: 5}
		case 3:
			return &Const{D: datum.Null}
		default:
			return intVal()
		}
	}
	leaf := func() Expr {
		switch r.Intn(6) {
		case 0:
			return &Cmp{Op: CmpOp(r.Intn(6)), L: &ColRef{ID: 3},
				R: &Const{D: datum.NewString(string(rune('a' + r.Intn(3))))}}
		case 1:
			return &Cmp{Op: CmpOp(r.Intn(2)), L: &ColRef{ID: 4},
				R: &Const{D: datum.NewBool(r.Intn(2) == 0)}}
		case 2:
			return &IsNull{Kid: numVal()}
		case 3:
			return &ColRef{ID: 4}
		case 4:
			return &Const{D: datum.NewBool(r.Intn(2) == 0)}
		default:
			return &Cmp{Op: CmpOp(r.Intn(6)), L: numVal(), R: numVal()}
		}
	}
	if depth <= 0 {
		return leaf()
	}
	switch r.Intn(6) {
	case 0:
		return &And{Kids: []Expr{randWidePred(r, depth-1), randWidePred(r, depth-1)}}
	case 1:
		return &Or{Kids: []Expr{randWidePred(r, depth-1), randWidePred(r, depth-1), leaf()}}
	case 2:
		return &Not{Kid: randWidePred(r, depth-1)}
	case 3:
		return &Not{Kid: &Not{Kid: randWidePred(r, depth-1)}}
	default:
		return leaf()
	}
}

func TestTypeOf(t *testing.T) {
	cases := []struct {
		name string
		e    Expr
		want datum.Type
		err  bool
	}{
		{"int-col", &ColRef{ID: 1}, datum.TypeInt, false},
		{"unbound-col", &ColRef{ID: 9}, 0, true},
		{"null-const", &Const{D: datum.Null}, datum.TypeUnknown, false},
		{"bool-const", &Const{D: datum.NewBool(true)}, datum.TypeBool, false},
		{"cmp-numeric-family", lt(col(1), col(2)), datum.TypeBool, false},
		{"cmp-int-date", lt(col(1), col(5)), datum.TypeBool, false},
		{"cmp-null-wildcard", eq(&Const{D: datum.Null}, col(3)), datum.TypeBool, false},
		{"cmp-int-string", eq(col(1), col(3)), 0, true},
		{"cmp-bool-int", eq(col(4), col(1)), 0, true},
		{"arith-int-int", &Arith{Op: ArithAdd, L: col(1), R: lit(2)}, datum.TypeInt, false},
		{"arith-int-float", &Arith{Op: ArithMul, L: col(1), R: col(2)}, datum.TypeFloat, false},
		{"arith-date", &Arith{Op: ArithAdd, L: col(5), R: lit(1)}, datum.TypeFloat, false},
		{"arith-null", &Arith{Op: ArithAdd, L: col(1), R: &Const{D: datum.Null}}, datum.TypeUnknown, false},
		{"arith-string", &Arith{Op: ArithAdd, L: col(3), R: lit(1)}, 0, true},
		{"and-bool-kids", and(lt(col(1), lit(3)), &ColRef{ID: 4}), datum.TypeBool, false},
		{"and-null-kid", and(lt(col(1), lit(3)), &Const{D: datum.Null}), datum.TypeBool, false},
		{"and-int-kid", and(lt(col(1), lit(3)), col(1)), 0, true},
		{"not-bool", &Not{Kid: &ColRef{ID: 4}}, datum.TypeBool, false},
		{"not-int", &Not{Kid: col(1)}, 0, true},
		{"isnull-any", &IsNull{Kid: col(3)}, datum.TypeBool, false},
	}
	for _, c := range cases {
		got, err := TypeOf(c.e, eetTypeEnv)
		if c.err {
			if err == nil {
				t.Errorf("%s: TypeOf = %v, want error", c.name, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: TypeOf error: %v", c.name, err)
		} else if got != c.want {
			t.Errorf("%s: TypeOf = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRewriteSites checks pre-order enumeration and that Rebuild is
// copy-on-write: substituting at a site must leave the original untouched.
func TestRewriteSites(t *testing.T) {
	inner := eq(&Arith{Op: ArithAdd, L: col(1), R: lit(2)}, lit(3))
	root := and(inner, &Not{Kid: &IsNull{Kid: col(2)}})
	sites := RewriteSites(root)
	// Pre-order: And, Cmp, Arith, c1, 2, 3, Not, IsNull, c2.
	if len(sites) != 9 {
		t.Fatalf("RewriteSites: %d sites, want 9", len(sites))
	}
	if sites[0].E != Expr(root) || sites[1].E != Expr(inner) {
		t.Error("RewriteSites is not pre-order from the root")
	}
	// Replace the Arith with a constant via its site.
	var arithSite *Site
	for i := range sites {
		if _, ok := sites[i].E.(*Arith); ok {
			arithSite = &sites[i]
			break
		}
	}
	if arithSite == nil {
		t.Fatal("no Arith site found")
	}
	rebuilt := arithSite.Rebuild(lit(7))
	if Equal(rebuilt, root) {
		t.Error("Rebuild returned a tree equal to the original")
	}
	// Copy-on-write: the original tree still holds the Arith.
	if _, ok := root.Kids[0].(*Cmp).L.(*Arith); !ok {
		t.Error("Rebuild mutated the original tree")
	}
	nc, ok := rebuilt.(*And).Kids[0].(*Cmp).L.(*Const)
	if !ok || nc.D.I != 7 {
		t.Errorf("rebuilt tree does not contain the replacement at the site")
	}
}

func TestNegateCmpOpComplement(t *testing.T) {
	want := map[CmpOp]CmpOp{
		CmpEQ: CmpNE, CmpNE: CmpEQ,
		CmpLT: CmpGE, CmpLE: CmpGT,
		CmpGT: CmpLE, CmpGE: CmpLT,
	}
	for op, neg := range want {
		if got := negateCmpOp(op); got != neg {
			t.Errorf("negateCmpOp(%v) = %v, want %v", op, got, neg)
		}
	}
}

func TestEETRewriteApplicability(t *testing.T) {
	byName := map[string]EETRewrite{}
	for _, rw := range EETRewrites() {
		byName[rw.Name] = rw
	}
	pred := Expr(lt(col(1), lit(5)))
	illTyped := Expr(eq(col(1), col(3))) // INT = STRING does not type
	bareNull := Expr(&Const{D: datum.Null})

	// Growth rewrites fire on any well-typed predicate with a column…
	for _, name := range []string{"eet-null-tautology", "eet-double-negation", "eet-negate-comparison", "eet-or-false-branch"} {
		if byName[name].Apply(pred, eetTypeEnv) == nil {
			t.Errorf("%s should apply to (c1 < 5)", name)
		}
		// …but never on ill-typed or NULL-wildcard expressions.
		if byName[name].Apply(illTyped, eetTypeEnv) != nil {
			t.Errorf("%s must decline an ill-typed comparison", name)
		}
		if byName[name].Apply(bareNull, eetTypeEnv) != nil {
			t.Errorf("%s must decline a bare NULL (type-wildcard) literal", name)
		}
	}
	// De Morgan needs a connective with >= 2 kids.
	if byName["eet-de-morgan"].Apply(pred, eetTypeEnv) != nil {
		t.Error("eet-de-morgan should not apply to a bare comparison")
	}
	if byName["eet-de-morgan"].Apply(and(pred), eetTypeEnv) != nil {
		t.Error("eet-de-morgan should not apply to a single-kid AND")
	}
	got := byName["eet-de-morgan"].Apply(and(pred, &ColRef{ID: 4}), eetTypeEnv)
	if got == nil {
		t.Error("eet-de-morgan should apply to a two-kid AND")
	} else if _, ok := got.(*Not); !ok {
		t.Errorf("eet-de-morgan produced %T, want *Not", got)
	}
	// Tautology injection needs an anchor column.
	if byName["eet-null-tautology"].Apply(&Const{D: datum.NewBool(true)}, eetTypeEnv) != nil {
		t.Error("eet-null-tautology needs a referenced column to anchor on")
	}
	// Commute declines subtraction, identity swaps, and ill-typed operands.
	commute := byName["eet-commute-arith"]
	if commute.Apply(&Arith{Op: ArithSub, L: col(1), R: lit(2)}, eetTypeEnv) != nil {
		t.Error("eet-commute-arith must decline subtraction")
	}
	if commute.Apply(&Arith{Op: ArithAdd, L: col(1), R: col(1)}, eetTypeEnv) != nil {
		t.Error("eet-commute-arith must decline structurally equal operands")
	}
	if commute.Apply(&Arith{Op: ArithAdd, L: col(3), R: lit(1)}, eetTypeEnv) != nil {
		t.Error("eet-commute-arith must decline string arithmetic")
	}
	swapped := commute.Apply(&Arith{Op: ArithAdd, L: col(1), R: lit(2)}, eetTypeEnv)
	if swapped == nil {
		t.Fatal("eet-commute-arith should apply to (c1 + 2)")
	}
	if a := swapped.(*Arith); !Equal(a.L, lit(2)) || !Equal(a.R, col(1)) {
		t.Errorf("eet-commute-arith produced %v, want operands swapped", swapped)
	}
	// Associate requires a same-op nested add/mul over INT (or NULL) operands.
	assoc := byName["eet-assoc-arith"]
	intChain := &Arith{Op: ArithAdd, L: &Arith{Op: ArithAdd, L: col(1), R: lit(1)}, R: lit(2)}
	if assoc.Apply(intChain, eetTypeEnv) == nil {
		t.Error("eet-assoc-arith should apply to ((c1 + 1) + 2)")
	}
	floatChain := &Arith{Op: ArithAdd, L: &Arith{Op: ArithAdd, L: col(2), R: lit(1)}, R: lit(2)}
	if assoc.Apply(floatChain, eetTypeEnv) != nil {
		t.Error("eet-assoc-arith must decline float operands (rounding is not associative)")
	}
	dateChain := &Arith{Op: ArithAdd, L: &Arith{Op: ArithAdd, L: col(5), R: lit(1)}, R: lit(2)}
	if assoc.Apply(dateChain, eetTypeEnv) != nil {
		t.Error("eet-assoc-arith must decline DATE operands (they take the float path)")
	}
	mixedOps := &Arith{Op: ArithAdd, L: &Arith{Op: ArithMul, L: col(1), R: lit(1)}, R: lit(2)}
	if assoc.Apply(mixedOps, eetTypeEnv) != nil {
		t.Error("eet-assoc-arith must decline mismatched operators")
	}
}

// checkEETEquivalence applies rw at every applicable site of pred and
// asserts the rewritten tree is EXACTLY equivalent to the original over rows,
// each alone and all in one batch: same root type, same datum per row, same
// filter selection, same error presence. Returns how many sites the rewrite fired.
func checkEETEquivalence(t *testing.T, pred Expr, rw EETRewrite, rows []datum.Row) int {
	t.Helper()
	origType, origTypeErr := TypeOf(pred, eetTypeEnv)
	cols := datum.ColumnVecs(rows, 5)
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	fired := 0
	for _, site := range RewriteSites(pred) {
		repl := rw.Apply(site.E, eetTypeEnv)
		if repl == nil {
			continue
		}
		fired++
		rewritten := site.Rebuild(repl)
		// Rewrites preserve the static type of the whole tree.
		newType, newTypeErr := TypeOf(rewritten, eetTypeEnv)
		if (origTypeErr != nil) != (newTypeErr != nil) || (origTypeErr == nil && newType != origType) {
			t.Errorf("%s: root type changed: (%v,%v) -> (%v,%v) on %s",
				rw.Name, origType, origTypeErr, newType, newTypeErr, SQL(pred, colName))
			continue
		}
		ve := &VecEval{Env: eetEnv}
		var origVec, newVec datum.Vec
		origVecErr := ve.Eval(pred, cols, idx, &origVec)
		newVecErr := ve.Eval(rewritten, cols, idx, &newVec)
		if (origVecErr != nil) != (newVecErr != nil) {
			t.Errorf("%s: vec error flipped %v -> %v on %s", rw.Name, origVecErr, newVecErr, SQL(pred, colName))
			continue
		}
		for i, row := range rows {
			a, aerr := vecEvalOne(t, pred, row, eetEnv)
			b, berr := vecEvalOne(t, rewritten, row, eetEnv)
			if (aerr != nil) != (berr != nil) {
				t.Fatalf("%s: row %d error flipped %v -> %v on %s -> %s",
					rw.Name, i, aerr, berr, SQL(pred, colName), SQL(rewritten, colName))
			}
			if aerr != nil {
				continue
			}
			if datum.TotalCompare(a, b) != 0 || a.IsNull() != b.IsNull() {
				t.Fatalf("%s: row %d value changed %v -> %v on %s -> %s",
					rw.Name, i, a, b, SQL(pred, colName), SQL(rewritten, colName))
			}
			if origVecErr == nil {
				if datum.TotalCompare(origVec.D[i], newVec.D[i]) != 0 || origVec.IsNull(i) != newVec.IsNull(i) {
					t.Fatalf("%s: row %d vec value changed %v -> %v on %s -> %s",
						rw.Name, i, origVec.D[i], newVec.D[i], SQL(pred, colName), SQL(rewritten, colName))
				}
			}
		}
		// Filter position: EvalPred selections must match when the root is
		// a well-typed predicate.
		if origTypeErr == nil && origType == datum.TypeBool && origVecErr == nil {
			selA, errA := ve.EvalPred(pred, cols, idx, nil)
			selB, errB := ve.EvalPred(rewritten, cols, idx, nil)
			if (errA != nil) != (errB != nil) {
				t.Fatalf("%s: EvalPred error flipped %v -> %v on %s", rw.Name, errA, errB, SQL(pred, colName))
			}
			if errA == nil {
				if len(selA) != len(selB) {
					t.Fatalf("%s: selection size changed %d -> %d on %s -> %s",
						rw.Name, len(selA), len(selB), SQL(pred, colName), SQL(rewritten, colName))
				}
				for i := range selA {
					if selA[i] != selB[i] {
						t.Fatalf("%s: selection changed at %d on %s", rw.Name, i, SQL(pred, colName))
					}
				}
			}
		}
	}
	return fired
}

// TestEETRewritesExactEquivalence sweeps random well-typed predicates and
// checks every catalog rewrite at every applicable site on NULL-heavy data.
func TestEETRewritesExactEquivalence(t *testing.T) {
	fired := map[string]int{}
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		rows := randWideRows(r, 64)
		for ei := 0; ei < 4; ei++ {
			pred := randWidePred(r, 2)
			if _, err := TypeOf(pred, eetTypeEnv); err != nil {
				t.Fatalf("seed %d: generator produced ill-typed %s: %v", seed, SQL(pred, colName), err)
			}
			for _, rw := range EETRewrites() {
				fired[rw.Name] += checkEETEquivalence(t, pred, rw, rows)
			}
		}
	}
	for _, rw := range EETRewrites() {
		if fired[rw.Name] == 0 {
			t.Errorf("%s never fired across the sweep; generator lost its coverage", rw.Name)
		}
	}
}

// FuzzEETRewrite is the native-fuzzing form of the equivalence sweep: one
// seed drives the predicate and data, rwPick selects the catalog entry, and
// every applicable site must rewrite to an exactly equivalent expression.
func FuzzEETRewrite(f *testing.F) {
	for i := int64(0); i < 7; i++ {
		f.Add(i*31+1, i)
	}
	catalog := EETRewrites()
	f.Fuzz(func(t *testing.T, seed, rwPick int64) {
		n := int64(len(catalog))
		rw := catalog[int(((rwPick%n)+n)%n)]
		r := rand.New(rand.NewSource(seed))
		rows := randWideRows(r, 48)
		for ei := 0; ei < 3; ei++ {
			pred := randWidePred(r, 2)
			checkEETEquivalence(t, pred, rw, rows)
		}
	})
}
