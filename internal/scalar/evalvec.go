package scalar

import (
	"fmt"

	"qtrtest/internal/datum"
)

// VecEval evaluates expressions over column vectors, one batch of rows at a
// time. It reuses scratch vectors across calls, so a VecEval must not be
// shared between goroutines. Results are value-identical to the row-at-a-time
// Eval/EvalBool: both bottom out in the same evalCmp/evalArith kernels.
type VecEval struct {
	// Env maps ColumnIDs to column positions, exactly like Eval's Env maps
	// them to row slots.
	Env Env
	// Pairs, when non-nil, makes the evaluator read a join's candidate pairs
	// in place; see PairView.
	Pairs *PairView

	pool []*datum.Vec
}

// PairView describes the rows of a join's candidate pairs without gathering
// them: the selection holds candidate positions, the columns at slots below
// Split are the cols argument's (the probe side) read at row L[position], and
// the others are Right[slot-Split] (the build side) read at row R[position].
// Nothing is copied before the predicate has picked the survivors.
type PairView struct {
	Split int
	Right []datum.Vec
	L, R  []int
}

func (v *VecEval) getVec() *datum.Vec {
	if n := len(v.pool); n > 0 {
		x := v.pool[n-1]
		v.pool = v.pool[:n-1]
		x.Reset()
		return x
	}
	return &datum.Vec{}
}

func (v *VecEval) putVec(x *datum.Vec) { v.pool = append(v.pool, x) }

// vecOp is a resolved operand: a column gathered through the selection
// vector, a dense scratch result, or a constant.
type vecOp struct {
	col   *datum.Vec // gather: value for position k is col.D[idx[k]], or col.D[via[idx[k]]]
	via   []int
	dense *datum.Vec // dense scratch result: value for position k is dense.D[k]
	c     datum.Datum
}

// at returns the operand's value for selected position k, row ri, where it
// lies: the kernels read it through the pointer and nothing is copied.
func (o *vecOp) at(k, ri int) *datum.Datum {
	switch {
	case o.col != nil:
		if o.via != nil {
			ri = o.via[ri]
		}
		return &o.col.D[ri]
	case o.dense != nil:
		return &o.dense.D[k]
	default:
		return &o.c
	}
}

// operand resolves e without materializing ColRefs and Consts; anything else
// is evaluated into a pooled scratch vector the caller must release.
func (v *VecEval) operand(e Expr, cols []datum.Vec, idx []int) (vecOp, error) {
	switch t := e.(type) {
	case *ColRef:
		slot, ok := v.Env[t.ID]
		if !ok {
			return vecOp{}, fmt.Errorf("scalar: column c%d not in scope", t.ID)
		}
		switch p := v.Pairs; {
		case p == nil:
			return vecOp{col: &cols[slot]}, nil
		case slot < p.Split:
			return vecOp{col: &cols[slot], via: p.L}, nil
		default:
			return vecOp{col: &p.Right[slot-p.Split], via: p.R}, nil
		}
	case *Const:
		return vecOp{c: t.D}, nil
	default:
		scratch := v.getVec()
		if err := v.Eval(e, cols, idx, scratch); err != nil {
			v.putVec(scratch)
			return vecOp{}, err
		}
		return vecOp{dense: scratch}, nil
	}
}

func (v *VecEval) release(o vecOp) {
	if o.dense != nil {
		v.putVec(o.dense)
	}
}

// Eval evaluates e for every selected row, appending one result per entry of
// idx to out (which is reset first, and sized for len(idx) results, so it
// grows at most once per call). cols holds the input columns; idx[k] is the
// row index of the k-th selected row within them.
func (v *VecEval) Eval(e Expr, cols []datum.Vec, idx []int, out *datum.Vec) error {
	out.D = datum.Grow(out.D[:0], len(idx))
	switch t := e.(type) {
	case *ColRef:
		o, err := v.operand(t, cols, idx)
		if err != nil {
			return err
		}
		if o.via == nil {
			out.AppendGather(o.col.D, idx)
			return nil
		}
		for _, ri := range idx {
			out.Append(o.col.D[o.via[ri]])
		}
		return nil
	case *Const:
		for range idx {
			out.Append(t.D)
		}
		return nil
	case *Cmp:
		l, err := v.operand(t.L, cols, idx)
		if err != nil {
			return err
		}
		r, err := v.operand(t.R, cols, idx)
		if err != nil {
			v.release(l)
			return err
		}
		for k, ri := range idx {
			out.Append(triToDatum(evalCmp(t.Op, l.at(k, ri), r.at(k, ri))))
		}
		v.release(l)
		v.release(r)
		return nil
	case *Arith:
		l, err := v.operand(t.L, cols, idx)
		if err != nil {
			return err
		}
		r, err := v.operand(t.R, cols, idx)
		if err != nil {
			v.release(l)
			return err
		}
		for k, ri := range idx {
			d, err := evalArith(t.Op, l.at(k, ri), r.at(k, ri))
			if err != nil {
				v.release(l)
				v.release(r)
				return err
			}
			out.Append(d)
		}
		v.release(l)
		v.release(r)
		return nil
	case *And:
		return v.evalVariadic(t.Kids, cols, idx, out, datum.True, datum.Tri.And)
	case *Or:
		return v.evalVariadic(t.Kids, cols, idx, out, datum.False, datum.Tri.Or)
	case *Not:
		if err := v.Eval(t.Kid, cols, idx, out); err != nil {
			return err
		}
		for k := range out.D {
			tri, err := datumToTri(out.D[k])
			if err != nil {
				return err
			}
			out.D[k] = triToDatum(tri.Not())
		}
		return nil
	case *IsNull:
		o, err := v.operand(t.Kid, cols, idx)
		if err != nil {
			return err
		}
		for k, ri := range idx {
			out.Append(datum.NewBool(o.at(k, ri).K == datum.KindNull))
		}
		v.release(o)
		return nil
	default:
		return fmt.Errorf("scalar: cannot evaluate %T", e)
	}
}

// evalVariadic folds AND/OR over the kids' dense results. Every kid is
// evaluated before folding — the same errors-dominate rule as the
// row-at-a-time Eval — so Error-vs-OK never depends on conjunct order or
// evaluator. When both error, the error *message* may differ (this one
// evaluates conjunct-major, Eval row-major, so a different offending value
// can be seen first); error presence is the contract.
func (v *VecEval) evalVariadic(kids []Expr, cols []datum.Vec, idx []int, out *datum.Vec, unit datum.Tri, fold func(datum.Tri, datum.Tri) datum.Tri) error {
	if len(kids) == 0 {
		d := triToDatum(unit)
		for range idx {
			out.Append(d)
		}
		return nil
	}
	if err := v.Eval(kids[0], cols, idx, out); err != nil {
		return err
	}
	// Normalize the first kid through datumToTri so a single-kid AND/OR
	// rejects non-boolean operands exactly like Eval's fold.
	for k := range out.D {
		tri, err := datumToTri(out.D[k])
		if err != nil {
			return err
		}
		out.D[k] = triToDatum(tri)
	}
	if len(kids) == 1 {
		return nil
	}
	tmp := v.getVec()
	defer v.putVec(tmp)
	for _, kid := range kids[1:] {
		if err := v.Eval(kid, cols, idx, tmp); err != nil {
			return err
		}
		for k := range out.D {
			a, err := datumToTri(out.D[k])
			if err != nil {
				return err
			}
			b, err := datumToTri(tmp.D[k])
			if err != nil {
				return err
			}
			out.D[k] = triToDatum(fold(a, b))
		}
	}
	return nil
}

// EvalPred filters idx by the predicate under WHERE semantics (NULL is
// false), appending the surviving row indexes to sel[:0] and returning it.
// sel may alias idx's storage: the output is always a subsequence of the
// input, written left to right, so in-place restriction is safe.
//
// Conjunction restricts the selection kid by kid — the same early-out a
// row-at-a-time filter gets from rows failing an early conjunct — but
// ONLY when every conjunct is statically error-free (errFree): a conjunct
// that can error must see every input row, or errors-dominate would depend
// on which conjunct ran first. Mixed conjunctions fall back to evaluating
// each conjunct over the full input and intersecting the selections.
func (v *VecEval) EvalPred(e Expr, cols []datum.Vec, idx []int, sel []int) ([]int, error) {
	switch t := e.(type) {
	case *And:
		if len(t.Kids) == 0 {
			return append(sel[:0], idx...), nil
		}
		allSafe := true
		for _, kid := range t.Kids {
			if !ErrFreePred(kid, v.Env) {
				allSafe = false
				break
			}
		}
		if !allSafe {
			return v.evalPredAndSlow(t.Kids, cols, idx, sel)
		}
		cur, err := v.EvalPred(t.Kids[0], cols, idx, sel)
		for _, kid := range t.Kids[1:] {
			if err != nil {
				return nil, err
			}
			cur, err = v.EvalPred(kid, cols, cur, cur)
		}
		return cur, err
	case *Cmp:
		l, err := v.operand(t.L, cols, idx)
		if err != nil {
			return nil, err
		}
		r, err := v.operand(t.R, cols, idx)
		if err != nil {
			v.release(l)
			return nil, err
		}
		sel = sel[:0]
		for k, ri := range idx {
			if evalCmp(t.Op, l.at(k, ri), r.at(k, ri)) == datum.True {
				sel = append(sel, ri)
			}
		}
		v.release(l)
		v.release(r)
		return sel, nil
	default:
		out := v.getVec()
		defer v.putVec(out)
		if err := v.Eval(e, cols, idx, out); err != nil {
			return nil, err
		}
		sel = sel[:0]
		for k, ri := range idx {
			tri, err := datumToTri(out.D[k])
			if err != nil {
				return nil, err
			}
			if tri == datum.True {
				sel = append(sel, ri)
			}
		}
		return sel, nil
	}
}

// evalPredAndSlow handles a conjunction with at least one conjunct that can
// error: every conjunct is evaluated over the FULL input selection (so any
// error surfaces regardless of what the other conjuncts exclude), and the
// surviving selections are intersected. All selections are ordered
// subsequences of idx, so intersection is a two-pointer merge.
func (v *VecEval) evalPredAndSlow(kids []Expr, cols []datum.Vec, idx []int, sel []int) ([]int, error) {
	cur := append([]int(nil), idx...)
	var scratch []int
	for _, kid := range kids {
		kidSel, err := v.EvalPred(kid, cols, idx, scratch[:0])
		if err != nil {
			return nil, err
		}
		cur = intersectSubseq(idx, cur, kidSel)
		scratch = kidSel
	}
	return append(sel[:0], cur...), nil
}

// intersectSubseq intersects a and b, both subsequences of base (which has
// no duplicate entries), writing the result into a's storage; the output is
// a subsequence of a produced left to right, so the in-place write is safe.
func intersectSubseq(base, a, b []int) []int {
	out := a[:0]
	i, j := 0, 0
	for _, x := range base {
		inA := i < len(a) && a[i] == x
		inB := j < len(b) && b[j] == x
		if inA {
			i++
		}
		if inB {
			j++
		}
		if inA && inB {
			out = append(out, x)
		}
	}
	return out
}
