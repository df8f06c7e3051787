package scalar

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"qtrtest/internal/datum"
)

func col(id int) *ColRef    { return &ColRef{ID: ColumnID(id)} }
func lit(v int64) *Const    { return &Const{D: datum.NewInt(v)} }
func eq(l, r Expr) *Cmp     { return &Cmp{Op: CmpEQ, L: l, R: r} }
func lt(l, r Expr) *Cmp     { return &Cmp{Op: CmpLT, L: l, R: r} }
func and(kids ...Expr) *And { return &And{Kids: kids} }
func env(ids ...ColumnID) Env {
	e := make(Env)
	for i, id := range ids {
		e[id] = i
	}
	return e
}

func TestEvalComparisons(t *testing.T) {
	row := datum.Row{datum.NewInt(5), datum.NewInt(7), datum.Null}
	e := env(1, 2, 3)
	cases := []struct {
		expr Expr
		want datum.Datum
	}{
		{eq(col(1), lit(5)), datum.NewBool(true)},
		{eq(col(1), col(2)), datum.NewBool(false)},
		{lt(col(1), col(2)), datum.NewBool(true)},
		{eq(col(3), lit(5)), datum.Null}, // NULL comparison -> UNKNOWN
		{&IsNull{Kid: col(3)}, datum.NewBool(true)},
		{&IsNull{Kid: col(1)}, datum.NewBool(false)},
		{&Not{Kid: eq(col(3), lit(5))}, datum.Null},
	}
	for i, c := range cases {
		got, err := vecEvalOne(t, c.expr, row, e)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.want {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

func TestEvalThreeValuedConnectives(t *testing.T) {
	row := datum.Row{datum.Null, datum.NewInt(1)}
	e := env(1, 2)
	unknown := eq(col(1), lit(1)) // NULL = 1 -> UNKNOWN
	truthy := eq(col(2), lit(1))
	falsy := eq(col(2), lit(2))

	// UNKNOWN AND FALSE = FALSE; UNKNOWN AND TRUE = UNKNOWN.
	if d, _ := vecEvalOne(t, and(unknown, falsy), row, e); d != datum.NewBool(false) {
		t.Errorf("UNKNOWN AND FALSE = %v, want FALSE", d)
	}
	if d, _ := vecEvalOne(t, and(unknown, truthy), row, e); !d.IsNull() {
		t.Errorf("UNKNOWN AND TRUE = %v, want NULL", d)
	}
	// UNKNOWN OR TRUE = TRUE; UNKNOWN OR FALSE = UNKNOWN.
	if d, _ := vecEvalOne(t, &Or{Kids: []Expr{unknown, truthy}}, row, e); d != datum.NewBool(true) {
		t.Errorf("UNKNOWN OR TRUE = %v, want TRUE", d)
	}
	if d, _ := vecEvalOne(t, &Or{Kids: []Expr{unknown, falsy}}, row, e); !d.IsNull() {
		t.Errorf("UNKNOWN OR FALSE = %v, want NULL", d)
	}
}

func TestEvalBoolNullIsFalse(t *testing.T) {
	row := datum.Row{datum.Null}
	ok, err := vecPredOne(t, eq(col(1), lit(1)), row, env(1))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("NULL predicate must filter the row (WHERE semantics)")
	}
}

func TestEvalArith(t *testing.T) {
	row := datum.Row{datum.NewInt(6), datum.NewFloat(0.5), datum.Null}
	e := env(1, 2, 3)
	if d, _ := vecEvalOne(t, &Arith{Op: ArithMul, L: col(1), R: lit(7)}, row, e); d != datum.NewInt(42) {
		t.Errorf("6*7 = %v", d)
	}
	if d, _ := vecEvalOne(t, &Arith{Op: ArithAdd, L: col(1), R: col(2)}, row, e); d != datum.NewFloat(6.5) {
		t.Errorf("6+0.5 = %v", d)
	}
	if d, _ := vecEvalOne(t, &Arith{Op: ArithSub, L: col(1), R: col(3)}, row, e); !d.IsNull() {
		t.Errorf("6-NULL = %v, want NULL", d)
	}
}

func TestEvalUnboundColumn(t *testing.T) {
	if _, err := vecEvalOne(t, col(9), datum.Row{}, Env{}); err == nil {
		t.Error("expected error for unbound column")
	}
}

func TestConjunctsAndMakeAnd(t *testing.T) {
	e := and(eq(col(1), lit(1)), and(eq(col(2), lit(2)), eq(col(3), lit(3))))
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts: got %d, want 3", len(cs))
	}
	rebuilt := MakeAnd(cs)
	if !Equal(rebuilt, and(cs[0], cs[1], cs[2])) {
		t.Error("MakeAnd should rebuild an AND of all conjuncts")
	}
	if !Equal(MakeAnd(nil), TrueExpr()) {
		t.Error("MakeAnd(nil) should be TRUE")
	}
	if MakeAnd(cs[:1]) != cs[0] {
		t.Error("MakeAnd of one conjunct should unwrap")
	}
	buf := make([]Expr, 1, 8)
	if got := AppendConjuncts(buf, e); len(got) != 4 || &got[0] != &buf[0] || got[1] != cs[0] || got[3] != cs[2] {
		t.Errorf("AppendConjuncts appended %v to a one-element list with room, want Conjuncts' %v", got[1:], cs)
	}
}

// TestRefIsShared: Ref hands every caller the one node of a column in its
// table, and ids outside the table a node of their own.
func TestRefIsShared(t *testing.T) {
	n := ColumnID(len(refs))
	for _, id := range []ColumnID{0, 3, n - 1} {
		if r := Ref(id); r.ID != id || Ref(id) != r {
			t.Errorf("Ref(%d) = %v, not one shared node", id, r)
		}
	}
	for _, id := range []ColumnID{-1, n, n + 5} {
		if r := Ref(id); r.ID != id || r == Ref(id) {
			t.Errorf("Ref(%d) = %v, shared", id, r)
		}
	}
}

func TestSubstituteAndRemap(t *testing.T) {
	pred := and(eq(col(1), lit(5)), lt(col(2), col(1)))
	remapped := Remap(pred, map[ColumnID]ColumnID{1: 10})
	refs := ReferencedCols(remapped)
	if !refs.Contains(10) || refs.Contains(1) || !refs.Contains(2) {
		t.Errorf("Remap refs wrong: %v", refs.Sorted())
	}
	// The original must be untouched.
	if !ReferencedCols(pred).Contains(1) {
		t.Error("Remap mutated its input")
	}
	inlined := Substitute(pred, map[ColumnID]Expr{1: &Arith{Op: ArithAdd, L: col(3), R: lit(1)}})
	refs2 := ReferencedCols(inlined)
	if !refs2.Contains(3) || refs2.Contains(1) {
		t.Errorf("Substitute refs wrong: %v", refs2.Sorted())
	}
}

func TestColSetOps(t *testing.T) {
	a := NewColSet(1, 2, 3)
	b := NewColSet(3, 4)
	if !NewColSet(1, 2).SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf wrong")
	}
	if !a.Intersects(b) || a.Intersects(NewColSet(9)) {
		t.Error("Intersects wrong")
	}
	u := a.Union(b)
	if u.Len() != 4 {
		t.Errorf("Union size %d", u.Len())
	}
	s := u.Sorted()
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			t.Error("Sorted not ascending")
		}
	}
}

func TestSQLRendering(t *testing.T) {
	name := func(id ColumnID) string { return map[ColumnID]string{1: "a", 2: "b"}[id] }
	e := and(eq(col(1), lit(5)), &Or{Kids: []Expr{lt(col(2), col(1)), &IsNull{Kid: col(2)}}})
	got := SQL(e, name)
	want := "((a = 5) AND ((b < a) OR (b IS NULL)))"
	if got != want {
		t.Errorf("SQL = %q, want %q", got, want)
	}
	if SQL(TrueExpr(), name) != "TRUE" {
		t.Error("empty AND must render TRUE")
	}
}

// text is the HashInto text of e.
func text(e Expr) string {
	var sb strings.Builder
	HashInto(e, &sb)
	return sb.String()
}

// Property: the HashInto text is structural — structurally equal expressions
// write equal texts, and a changed literal changes the text.
func TestHashStructural(t *testing.T) {
	f := func(a, b int64) bool {
		ea := eq(col(1), lit(a))
		eb := eq(col(1), lit(b))
		return (text(ea) == text(eb)) == (a == b) && Equal(ea, eb) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHashTellsConstantKindsApart: constants of equal digits but different
// kinds are not Equal and must not share a text; INT, STRING, BOOL and NULL
// keep the spelling the text always gave them.
func TestHashTellsConstantKindsApart(t *testing.T) {
	for _, c := range []struct {
		d    datum.Datum
		want string
	}{
		{datum.NewInt(5), "(c1=k5)"},
		{datum.NewFloat(5), "(c1=kf5)"},
		{datum.NewDate(5), "(c1=kd5)"},
		{datum.NewFloat(-0.5), "(c1=kf-0.5)"},
		{datum.NewString("5"), "(c1=k'5')"},
		{datum.NewBool(true), "(c1=kTRUE)"},
		{datum.Null, "(c1=kNULL)"},
	} {
		if got := text(eq(col(1), &Const{D: c.d})); got != c.want {
			t.Errorf("%v of kind %d: text %q, want %q", c.d, c.d.K, got, c.want)
		}
	}
}

// Property: evaluation is deterministic.
func TestEvalDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		row := datum.Row{datum.NewInt(int64(r.Intn(10))), datum.NewInt(int64(r.Intn(10)))}
		e := &Cmp{Op: CmpOp(r.Intn(6)), L: col(1), R: col(2)}
		a, err1 := vecEvalOne(t, e, row, env(1, 2))
		b, err2 := vecEvalOne(t, e, row, env(1, 2))
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("nondeterministic eval at %d", i)
		}
	}
}

func TestAggSQLAndHash(t *testing.T) {
	a := Agg{Op: AggCountStar, Out: 5}
	if a.SQL(func(ColumnID) string { return "x" }) != "COUNT(*)" {
		t.Error("COUNT(*) rendering")
	}
	s := Agg{Op: AggSum, Arg: col(3), Out: 6}
	if got := s.SQL(func(id ColumnID) string { return "c" }); got != "SUM(c)" {
		t.Errorf("SUM rendering: %s", got)
	}
	var as, ss strings.Builder
	a.HashInto(&as)
	s.HashInto(&ss)
	if as.String() != "cnt*->5" || ss.String() != "2(c3)->6" {
		t.Errorf("aggregate texts %q and %q, want cnt*->5 and 2(c3)->6", as.String(), ss.String())
	}
}

func TestCmpCommute(t *testing.T) {
	pairs := map[CmpOp]CmpOp{
		CmpLT: CmpGT, CmpLE: CmpGE, CmpGT: CmpLT, CmpGE: CmpLE, CmpEQ: CmpEQ, CmpNE: CmpNE,
	}
	for op, want := range pairs {
		if op.Commute() != want {
			t.Errorf("%v.Commute() = %v, want %v", op, op.Commute(), want)
		}
	}
}
