package scalar

import (
	"fmt"
	"math"
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/fnv64"
)

// kernelValues is every corner the comparison and arithmetic kernels must
// agree with the old by-value route on: NULL, NaN, signed zeros and
// infinities, the first integers float64 cannot tell apart (as INT, FLOAT and
// DATE), both booleans, and empty and non-ASCII strings.
func kernelValues() []datum.Datum {
	const p53 = int64(1) << 53
	return []datum.Datum{
		datum.Null,
		datum.NewInt(0), datum.NewInt(1), datum.NewInt(-1), datum.NewInt(p53), datum.NewInt(p53 + 1),
		datum.NewInt(math.MaxInt64), datum.NewInt(math.MinInt64),
		datum.NewFloat(math.NaN()), datum.NewFloat(0), datum.NewFloat(math.Copysign(0, -1)),
		datum.NewFloat(math.Inf(1)), datum.NewFloat(math.Inf(-1)), datum.NewFloat(1), datum.NewFloat(1.5),
		datum.NewFloat(float64(p53)), datum.NewFloat(float64(p53) + 2),
		datum.NewDate(0), datum.NewDate(1), datum.NewDate(p53 + 1),
		datum.NewBool(false), datum.NewBool(true),
		datum.NewString(""), datum.NewString("a"), datum.NewString("b"), datum.NewString("é"), datum.NewString("日本"),
	}
}

var (
	allCmpOps   = []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}
	allArithOps = []ArithOp{ArithAdd, ArithSub, ArithMul}
)

// refImage is the float64 a numeric datum compares and computes through.
func refImage(d datum.Datum) (float64, bool) {
	switch d.K {
	case datum.KindInt, datum.KindDate:
		return float64(d.I), true
	case datum.KindFloat:
		return d.Float(), true
	}
	return 0, false
}

// refCmp is the comparison semantics spelled out, independent of the kernel:
// what evalCmp over datum.Compare computed when both took their operands by
// value.
func refCmp(op CmpOp, l, r datum.Datum) datum.Tri {
	if l.K == datum.KindNull || r.K == datum.KindNull {
		return datum.Unknown
	}
	var c int
	lf, lnum := refImage(l)
	rf, rnum := refImage(r)
	switch {
	case lnum && rnum:
		// Not native float operators: a NaN is neither less nor greater, so
		// it lands on c == 0 and =, <=, >= hold for it.
		if lf < rf {
			c = -1
		} else if lf > rf {
			c = 1
		}
	case lnum || rnum || l.K != r.K:
		return datum.Unknown
	case l.K == datum.KindString:
		if l.Str() < r.Str() {
			c = -1
		} else if l.Str() > r.Str() {
			c = 1
		}
	case l.K == datum.KindBool:
		if !l.Bool() && r.Bool() {
			c = -1
		} else if l.Bool() && !r.Bool() {
			c = 1
		}
	default:
		return datum.Unknown
	}
	switch op {
	case CmpEQ:
		return datum.TriFromBool(c == 0)
	case CmpNE:
		return datum.TriFromBool(c != 0)
	case CmpLT:
		return datum.TriFromBool(c < 0)
	case CmpLE:
		return datum.TriFromBool(c <= 0)
	case CmpGT:
		return datum.TriFromBool(c > 0)
	default:
		return datum.TriFromBool(c >= 0)
	}
}

// refArith is the arithmetic semantics spelled out; errText is "" for no
// error.
func refArith(op ArithOp, l, r datum.Datum) (d datum.Datum, errText string) {
	if l.K == datum.KindNull || r.K == datum.KindNull {
		return datum.Null, ""
	}
	if l.K == datum.KindInt && r.K == datum.KindInt {
		switch op {
		case ArithAdd:
			return datum.NewInt(l.I + r.I), ""
		case ArithSub:
			return datum.NewInt(l.I - r.I), ""
		default:
			return datum.NewInt(l.I * r.I), ""
		}
	}
	lf, lnum := refImage(l)
	rf, rnum := refImage(r)
	if !lnum || !rnum {
		return datum.Null, fmt.Sprintf("scalar: arithmetic on non-numeric %v %s %v", l, op, r)
	}
	switch op {
	case ArithAdd:
		return datum.NewFloat(lf + rf), ""
	case ArithSub:
		return datum.NewFloat(lf - rf), ""
	default:
		return datum.NewFloat(lf * rf), ""
	}
}

// sameDatum is bitwise identity except that any NaN matches any NaN: the
// hardware, not the kernel, picks a NaN result's payload.
func sameDatum(a, b datum.Datum) bool {
	if a.K == datum.KindFloat && b.K == datum.KindFloat && math.IsNaN(a.Float()) && math.IsNaN(b.Float()) {
		return true
	}
	return a == b
}

func checkKernelPair(t testing.TB, l, r datum.Datum) {
	t.Helper()
	for _, op := range allCmpOps {
		if got, want := evalCmp(op, &l, &r), refCmp(op, l, r); got != want {
			t.Errorf("evalCmp(%v %s %v) = %v, reference %v", l, op, r, got, want)
		}
	}
	for _, op := range allArithOps {
		got, err := evalArith(op, &l, &r)
		want, wantErr := refArith(op, l, r)
		gotErr := ""
		if err != nil {
			gotErr = err.Error()
		}
		if gotErr != wantErr || !sameDatum(got, want) {
			t.Errorf("evalArith(%v %s %v) = (%v, %q), reference (%v, %q)", l, op, r, got, gotErr, want, wantErr)
		}
	}
}

// checkEvaluatorsAgree holds VecEval.Eval and — for a comparison —
// VecEval.EvalPred of e over a batch of rows to their answers on each row
// alone. The batch carries a row the selection skips, so a position in the
// selection is never the row's index: a dense operand read by row index, or a
// column read by position, shows.
func checkEvaluatorsAgree(t testing.TB, e Expr, rows []datum.Row, en Env) {
	t.Helper()
	label := SQL(e, colName)
	skipped := make(datum.Row, len(rows[0]))
	for i := range skipped {
		skipped[i] = datum.NewString("skipped")
	}
	cols := datum.ColumnVecs(append([]datum.Row{skipped}, rows...), len(skipped))
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i + 1
	}
	want := make([]datum.Datum, len(rows))
	var wantSel []int
	wantErr := ""
	for i, row := range rows {
		d, err := vecEvalOne(t, e, row, en)
		if err != nil {
			if wantErr == "" {
				wantErr = err.Error()
			}
			continue
		}
		want[i] = d
		if ok, err := vecPredOne(t, e, row, en); err == nil && ok {
			wantSel = append(wantSel, idx[i])
		}
	}
	ve := &VecEval{Env: en}
	var out datum.Vec
	err := ve.Eval(e, cols, idx, &out)
	switch {
	case wantErr != "":
		if err == nil || err.Error() != wantErr {
			t.Errorf("%s: VecEval.Eval error %v, one row %q", label, err, wantErr)
		}
	case err != nil:
		t.Errorf("%s: VecEval.Eval: %v", label, err)
	case len(out.D) != len(rows):
		t.Errorf("%s: VecEval.Eval gave %d values for %d rows", label, len(out.D), len(rows))
	default:
		for i := range rows {
			if !sameDatum(out.D[i], want[i]) {
				t.Errorf("%s on %v: VecEval.Eval %v, one row %v", label, rows[i], out.D[i], want[i])
			}
		}
	}
	if _, isCmp := e.(*Cmp); !isCmp {
		return
	}
	sel, err := ve.EvalPred(e, cols, idx, nil)
	switch {
	case wantErr != "":
		if err == nil || err.Error() != wantErr {
			t.Errorf("%s: EvalPred error %v, one row %q", label, err, wantErr)
		}
	case err != nil:
		t.Errorf("%s: EvalPred: %v", label, err)
	case fmt.Sprint(sel) != fmt.Sprint(wantSel):
		t.Errorf("%s: EvalPred kept %v, row by row %v", label, sel, wantSel)
	}
}

// computed wraps a column in an expression that the vector engine must
// evaluate into a dense scratch vector and that keeps a value of kind k what
// it was (a DATE becomes the FLOAT of the same image). No expression computes
// a string, so ok is false for that kind.
func computed(c *ColRef, k datum.Kind) (e Expr, ok bool) {
	switch k {
	case datum.KindNull, datum.KindInt:
		return &Arith{Op: ArithAdd, L: c, R: lit(0)}, true
	case datum.KindFloat, datum.KindDate:
		return &Arith{Op: ArithMul, L: c, R: &Const{D: datum.NewFloat(1)}}, true
	case datum.KindBool:
		return &Not{Kid: &Not{Kid: c}}, true
	}
	return nil, false
}

// checkOperandShapes runs one operator over l and r in every shape the vector
// engine resolves an operand to: column, constant, dense scratch vector.
func checkOperandShapes(t testing.TB, mk func(l, r Expr) Expr, pairs []datum.Row) {
	t.Helper()
	en := env(1, 2)
	checkEvaluatorsAgree(t, mk(col(1), col(2)), pairs, en)
	for _, p := range pairs {
		one := []datum.Row{p}
		checkEvaluatorsAgree(t, mk(col(1), &Const{D: p[1]}), one, en)
		checkEvaluatorsAgree(t, mk(&Const{D: p[0]}, col(2)), one, en)
		checkEvaluatorsAgree(t, mk(&Const{D: p[0]}, &Const{D: p[1]}), one, en)
		dl, lok := computed(col(1), p[0].K)
		dr, rok := computed(col(2), p[1].K)
		if lok {
			checkEvaluatorsAgree(t, mk(dl, col(2)), one, en)
			checkEvaluatorsAgree(t, mk(dl, &Const{D: p[1]}), one, en)
		}
		if rok {
			checkEvaluatorsAgree(t, mk(col(1), dr), one, en)
		}
		if lok && rok {
			checkEvaluatorsAgree(t, mk(dl, dr), one, en)
		}
	}
}

// TestKernelTable: over every pair of corner values, the pointer kernels are
// the spelled-out semantics, VecEval computes exactly that on one row, and
// agrees with itself on one row in every operand shape over a batch.
func TestKernelTable(t *testing.T) {
	vals := kernelValues()
	var pairs []datum.Row
	for _, l := range vals {
		for _, r := range vals {
			checkKernelPair(t, l, r)
			pairs = append(pairs, datum.Row{l, r})
		}
	}
	en := env(1, 2)
	for _, op := range allCmpOps {
		op := op
		for _, p := range pairs {
			got, err := vecEvalOne(t, &Cmp{Op: op, L: col(1), R: col(2)}, p, en)
			if want := triToDatum(refCmp(op, p[0], p[1])); err != nil || got != want {
				t.Errorf("Eval(%v %s %v) = (%v, %v), reference %v", p[0], op, p[1], got, err, want)
			}
		}
		checkOperandShapes(t, func(l, r Expr) Expr { return &Cmp{Op: op, L: l, R: r} }, pairs)
	}
	for _, op := range allArithOps {
		op := op
		// A batch stops at its first error, so arithmetic goes pair by pair.
		for _, p := range pairs {
			checkOperandShapes(t, func(l, r Expr) Expr { return &Arith{Op: op, L: l, R: r} }, []datum.Row{p})
		}
	}
}

// TestKernelCorners states the corners by name, so that a kernel rewritten
// with native float operators or an integer fast path fails on a line that
// says what it broke.
func TestKernelCorners(t *testing.T) {
	const p53 = int64(1) << 53
	nan := datum.NewFloat(math.NaN())
	for _, c := range []struct {
		name string
		op   CmpOp
		l, r datum.Datum
		want datum.Tri
	}{
		{"NaN = 1", CmpEQ, nan, datum.NewInt(1), datum.True},
		{"NaN <= 1", CmpLE, nan, datum.NewInt(1), datum.True},
		{"1 >= NaN", CmpGE, datum.NewInt(1), nan, datum.True},
		{"NaN = NaN", CmpEQ, nan, nan, datum.True},
		{"NaN <> NaN", CmpNE, nan, nan, datum.False},
		{"NaN < +Inf", CmpLT, nan, datum.NewFloat(math.Inf(1)), datum.False},
		{"2^53 = 2^53+1 as INT", CmpEQ, datum.NewInt(p53), datum.NewInt(p53 + 1), datum.True},
		{"2^53 < 2^53+1 as INT", CmpLT, datum.NewInt(p53), datum.NewInt(p53 + 1), datum.False},
		{"INT 2^53+1 = FLOAT 2^53", CmpEQ, datum.NewInt(p53 + 1), datum.NewFloat(float64(p53)), datum.True},
		{"-0.0 = +0.0", CmpEQ, datum.NewFloat(math.Copysign(0, -1)), datum.NewFloat(0), datum.True},
		{"DATE 1 = INT 1", CmpEQ, datum.NewDate(1), datum.NewInt(1), datum.True},
		{"INT = STRING", CmpEQ, datum.NewInt(1), datum.NewString("1"), datum.Unknown},
		{"BOOL <> INT", CmpNE, datum.NewBool(true), datum.NewInt(1), datum.Unknown},
		{"NULL = NULL", CmpEQ, datum.Null, datum.Null, datum.Unknown},
		{"FALSE < TRUE", CmpLT, datum.NewBool(false), datum.NewBool(true), datum.True},
		{"'' < 'a'", CmpLT, datum.NewString(""), datum.NewString("a"), datum.True},
		{"'é' < '日本'", CmpLT, datum.NewString("é"), datum.NewString("日本"), datum.True},
	} {
		if got := evalCmp(c.op, &c.l, &c.r); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}

// fuzzDatum builds a datum of any kind from fuzzer-chosen parts.
func fuzzDatum(k uint8, i int64, s string) datum.Datum {
	switch datum.Kind(k % 6) {
	case datum.KindInt:
		return datum.NewInt(i)
	case datum.KindFloat:
		return datum.NewFloat(math.Float64frombits(uint64(i)))
	case datum.KindString:
		return datum.NewString(s)
	case datum.KindBool:
		return datum.NewBool(i&1 == 1)
	case datum.KindDate:
		return datum.NewDate(i)
	}
	return datum.Null
}

// FuzzCmpKernel is TestKernelTable with the fuzzer choosing the two values:
// kernels ≡ spelled-out semantics, and one-row Eval ≡ VecEval.Eval ≡ EvalPred
// in every operand shape, for all six comparisons and all three arithmetic ops.
// Its seeds are the corners, committed under testdata/fuzz/FuzzCmpKernel.
func FuzzCmpKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, kl uint8, il int64, sl string, kr uint8, ir int64, sr string) {
		l, r := fuzzDatum(kl, il, sl), fuzzDatum(kr, ir, sr)
		checkKernelPair(t, l, r)
		pair := []datum.Row{{l, r}}
		for _, op := range allCmpOps {
			op := op
			checkOperandShapes(t, func(l, r Expr) Expr { return &Cmp{Op: op, L: l, R: r} }, pair)
		}
		for _, op := range allArithOps {
			op := op
			checkOperandShapes(t, func(l, r Expr) Expr { return &Arith{Op: op, L: l, R: r} }, pair)
		}
	})
}

// TestFingerprintDatumProperty: a constant's fingerprint follows Equal. The
// memo interns on it and confirms a hit with Equal, so constants Equal holds
// for must agree — built apart, NaN payloads included — and, over the kernel
// corners, constants of another kind or payload (INT 1, DATE 1 and TRUE; the
// two zeros; the empty string and NULL) must not: a collision there costs an
// Equal call on every probe, not a wrong plan. Nothing else reads the sum:
// plan hashes and result-cache keys are the textual Hash.
func TestFingerprintDatumProperty(t *testing.T) {
	fp := func(d datum.Datum) uint64 {
		h := fnv64.New()
		FingerprintInto(&Const{D: d}, &h)
		return h.Sum()
	}
	vals := kernelValues()
	for _, a := range vals {
		for _, b := range kernelValues() {
			equal := Equal(&Const{D: a}, &Const{D: b})
			if same := fp(a) == fp(b); same != equal {
				t.Errorf("%v (kind %d) and %v (kind %d): Equal %v, same fingerprint %v", a, a.K, b, b.K, equal, same)
			}
		}
	}
	if fp(datum.NewString(string([]byte("日本")))) != fp(datum.NewString("日本")) {
		t.Error("equal strings held in different memory fingerprint differently")
	}
}
