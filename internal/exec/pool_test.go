package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// poisonPools preloads both scratch pools with garbage-filled buffers: vectors
// carrying live datums and null bits at full length, selection vectors full of
// out-of-range indices, flag slices stuck at true, key tables and indexes
// full of keys, accumulators mid-sum.
// If any operator trusts a pooled buffer's contents or length instead of
// resetting before use, the poison surfaces as wrong rows — which the
// differential run below would catch. Buffers are Put at poisoned length
// deliberately; use-side hygiene is the contract under test.
func poisonPools(tb testing.TB) {
	tb.Helper()
	vecs := func() []datum.Vec {
		vecs := make([]datum.Vec, 9)
		for c := range vecs {
			for k := 0; k < 2000; k++ {
				vecs[c].Append(datum.NewInt(int64(-777 - k)))
			}
			vecs[c].Append(datum.Null)
		}
		return vecs
	}
	sel := func() []int {
		sel := make([]int, 5000)
		for k := range sel {
			sel[k] = 1 << 30
		}
		return sel
	}
	// A key table and index over the poisoned vectors: every key, row and
	// accumulator of them is a wrong answer if it survives into a later run.
	keys := func() (t datum.KeyTable) {
		v := vecs()
		t.Reset(1)
		for ri := range v[0].D {
			t.Add(v, []int{0}, ri)
		}
		return t
	}
	index := func() (x datum.KeyIndex) {
		v := vecs()
		v[0].D[7] = datum.NewFloat(math.NaN())
		x.Build(v, []int{0}, len(v[0].D))
		return x
	}
	states := make([]aggState, 500)
	for k := range states {
		states[k] = aggState{count: 1 << 30, sumI: -777, sawRow: true, min: datum.NewInt(-777), max: datum.NewInt(777)}
	}
	// A plan takes one scratch per operator, so a handful per pool outnumbers
	// any plan here.
	for i := 0; i < 16; i++ {
		opPool.Put(&opScratch{vecs: vecs(), args: vecs(), cols: vecs(), sel: sel(), keys: keys(), states: slices.Clone(states)})
		flags := make([]bool, 3000)
		for k := range flags {
			flags[k] = true
		}
		segs := make([]joinSeg, 100)
		for k := range segs {
			segs[k] = joinSeg{li: 1 << 30, start: 1 << 30, end: 1 << 30, final: true}
		}
		scan := make([]int32, 100)
		for k := range scan {
			scan[k] = 1 << 30
		}
		joinPool.Put(&joinScratch{
			build: vecs(), cand: vecs(), index: index(), scan: scan,
			candL: sel(), candR: sel(), sel: sel(), outL: sel(), outR: sel(),
			segs: segs, matched: flags,
		})
	}
}

// TestPoolPoisonIsInvisible is the pooled-scratch hygiene guard: with every
// pool poisoned before each execution, results must still match the reference
// engine (which uses none of the pools) and, rows and order, the first run,
// on plans covering every pooled operator — filter selections, project
// vectors, join candidate/output/build vectors and match flags, aggregate
// argument/result vectors, and a sort's drained vectors and permutation, a
// merge join's probe-side sort among them. Both batch sizes run: a poisoned
// pool would corrupt either.
// A reused Program takes its scratch afresh in every run, so it is held to
// the same: its operators keep no buffer from the run before that a poisoned
// pool could not have handed them. A narrow plan run right after a wide one
// takes back the vectors the wide run filled, and leaves the columns nothing
// above it reads in them: none of that stale data may reach its result.
func TestPoolPoisonIsInvisible(t *testing.T) {
	cat := testCatalog()
	agg := func(child *physical.Expr) *physical.Expr {
		return &physical.Expr{
			Op: physical.OpHashAgg, Children: []*physical.Expr{child},
			GroupCols: []scalar.ColumnID{1},
			Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: 20}},
		}
	}
	plans := map[string]*physical.Expr{
		"scan": scanT1(),
		"filter": {
			Op: physical.OpFilter, Children: []*physical.Expr{scanT1()},
			Filter: &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: 2}, R: &scalar.Const{D: datum.NewInt(15)}},
		},
		"project": {
			Op: physical.OpProject, Children: []*physical.Expr{scanT1()},
			Projs: []logical.ProjItem{
				{Out: 9, E: &scalar.Arith{Op: scalar.ArithAdd, L: &scalar.ColRef{ID: 1}, R: &scalar.Const{D: datum.NewInt(100)}}},
			},
		},
		"agg":             agg(scanT1()),
		"agg-over-sort":   agg(sortPlan(scanT1(), logical.SortKey{Col: 2, Desc: true})),
		"limit-over-sort": limitPlan(sortPlan(filterOf(scanT1(), cmpExpr(scalar.CmpNE, col(1), intc(2))), logical.SortKey{Col: 1}), 2),
		"concat-over-sort": {
			Op: physical.OpConcat, Children: []*physical.Expr{sortPlan(scanT2(), logical.SortKey{Col: 4}), scanT1()},
			OutCols: []scalar.ColumnID{30}, InputCols: [][]scalar.ColumnID{{3}, {2}},
		},
		"mergejoin": joinPlan(physical.OpMergeJoin, physical.JoinInner),
	}
	for _, jt := range []physical.JoinType{physical.JoinInner, physical.JoinLeft, physical.JoinSemi, physical.JoinAnti} {
		plans[fmt.Sprintf("hashjoin-%s", jt)] = joinPlan(physical.OpHashJoin, jt)
		plans[fmt.Sprintf("nljoin-%s", jt)] = joinPlan(physical.OpNLJoin, jt)
	}
	// Residual predicate forces the EvalPred selection path (the equi fast
	// path never writes into sel); filter under the build side forces the
	// owned build vectors instead of the bare-scan alias.
	residual := joinPlan(physical.OpHashJoin, physical.JoinLeft)
	residual.Children[1] = &physical.Expr{
		Op: physical.OpFilter, Children: []*physical.Expr{residual.Children[1]},
		Filter: &scalar.Cmp{Op: scalar.CmpNE, L: &scalar.ColRef{ID: 4}, R: &scalar.Const{D: datum.NewString("uno")}},
	}
	plans["hashjoin-built"] = residual

	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			// Several rounds so later executions consume buffers earlier
			// poisoned *and* buffers recycled from the execution before; a
			// fresh and a reused program per batch size take turns at the
			// freshly poisoned pool.
			var runs []func() ([]datum.Row, error)
			for _, eng := range []Engine{EngineBatch, EngineRow} {
				reused := Compile(eng, plan)
				runs = append(runs,
					func() ([]datum.Row, error) { return RunEngine(eng, plan, cat, 0, 0) },
					func() ([]datum.Row, error) { return reused.Run(cat, 0, 0) })
			}
			var want []datum.Row
			for round := range runs {
				poisonPools(t)
				for i := range runs {
					k := (round + i) % len(runs)
					got, err := runs[k]()
					if err != nil {
						t.Fatalf("round %d, run %d (batch size 1: %v, reused program: %v): %v", round, k, k >= 2, k%2 == 1, err)
					}
					if want == nil {
						want = got
						requireRefAgrees(t, plan, cat, want)
					}
					requireSameRows(t, want, got)
				}
			}
		})
	}

	wide := catalog.New()
	wide.Add(randomTable("wl", 6, 1500, 1))
	wide.Add(randomTable("wr", 6, 1500, 2))
	build := filterOf(scanWR(), &scalar.Not{Kid: &scalar.IsNull{Kid: col(16)}})
	wides := map[string]*physical.Expr{
		"sort": sortPlan(scanWL(), logical.SortKey{Col: 2}),
		"hashjoin": {
			Op: physical.OpHashJoin, JoinType: physical.JoinLeft, Children: []*physical.Expr{scanWL(), build},
			On: cmpExpr(scalar.CmpEQ, col(1), col(11)), EquiLeft: []scalar.ColumnID{1}, EquiRight: []scalar.ColumnID{11},
		},
		"mergejoin": {
			Op: physical.OpMergeJoin, Children: []*physical.Expr{filterOf(scanWL(), cmpExpr(scalar.CmpLT, col(3), intc(2))), build},
			On: cmpExpr(scalar.CmpEQ, col(1), col(11)), EquiLeft: []scalar.ColumnID{1}, EquiRight: []scalar.ColumnID{11},
		},
	}
	for name, plan := range wides {
		t.Run("narrow-after-wide-"+name, func(t *testing.T) {
			narrow := &physical.Expr{
				Op: physical.OpProject, Children: []*physical.Expr{plan},
				Projs: []logical.ProjItem{{Out: 100, E: col(2)}, {Out: 101, E: intc(7)}},
			}
			var want []datum.Row
			for round := 0; round < 4; round++ {
				poisonPools(t)
				if _, err := RunEngine(EngineBatch, plan, wide, 0, 0); err != nil {
					t.Fatalf("round %d: wide plan: %v", round, err)
				}
				got, err := RunEngine(EngineBatch, narrow, wide, 0, 0)
				if err != nil {
					t.Fatalf("round %d: narrow plan: %v", round, err)
				}
				if want == nil {
					want = got
					requireRefAgrees(t, narrow, wide, want)
				}
				requireSameRows(t, want, got)
			}
		})
	}
}

// TestPutSelRejectsDenseIota pins the alias guard directly: a selection
// sliced from the shared read-only iota must never enter a pool, or a later
// EvalPred would scribble over every operator's dense selections.
func TestPutSelRejectsDenseIota(t *testing.T) {
	aliases := func(s []int) bool { return cap(s) > 0 && &s[:cap(s)][0] == &denseIota[0] }
	// sync.Pool hands a Put straight back to the same goroutine, so the Get
	// below sees exactly what this test put.
	putOpScratch(&opScratch{sel: denseIota[:16]})
	if s := getOpScratch(); aliases(s.sel) {
		t.Fatalf("denseIota alias entered the operator scratch pool")
	}
	putJoinScratch(&joinScratch{sel: denseIota[:16]})
	if s := getJoinScratch(); aliases(s.sel) {
		t.Fatalf("denseIota alias entered the join scratch pool")
	}
	if denseIota[10] != 10 {
		t.Fatalf("denseIota corrupted: [10] = %d", denseIota[10])
	}
}
