// Package exec executes physical plans. Correctness testing (§2.3) executes
// Plan(q) and Plan(q,¬R) and compares their results as multisets; this
// package provides both the execution and the comparison oracle. One compiler
// (compile.go) builds one set of columnar operators, run 1024 rows per batch
// (EngineBatch, which everything runs on) or one row per batch (EngineRow).
// Their differential baseline is the reference engine (EngineRef,
// internal/refengine), which shares no evaluation code with them.
package exec

import (
	"errors"
	"fmt"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// envOf maps a column layout to slot positions.
func envOf(cols []scalar.ColumnID) scalar.Env {
	env := make(scalar.Env, len(cols))
	for i, c := range cols {
		env[c] = i
	}
	return env
}

// Run executes a plan to completion on the default (batch) engine and
// returns all result rows.
func Run(plan *physical.Expr, cat *catalog.Catalog) ([]datum.Row, error) {
	return RunEngine(EngineBatch, plan, cat, 0, 0)
}

// ErrRowLimit reports that a plan exceeded a cap passed to RunEngine: its
// result grew past maxRows, or its operators produced more rows in total
// than maxWork. Fuzzing uses it to skip pathological plans (a dropped join
// predicate turns a join into a cross product) instead of paying for them.
var ErrRowLimit = errors.New("exec: result row cap exceeded")

// sortKey is one key of a sort resolved to its input slot.
type sortKey struct {
	slot int
	desc bool
}

// apply orients a datum.TotalCompare result along the key's direction.
func (k sortKey) apply(c int) int {
	if k.desc {
		return -c
	}
	return c
}

// sortKeys resolves a Sort's keys against its input layout. A sort key missing
// from the input is a plan-construction bug and must fail loudly, not
// silently sort by the column in slot 0.
func sortKeys(in *layout, keys []logical.SortKey) ([]sortKey, error) {
	env := in.env()
	out := make([]sortKey, len(keys))
	for i, k := range keys {
		slot, ok := env[k.Col]
		if !ok {
			return nil, fmt.Errorf("exec: sort key column c%d not in input", k.Col)
		}
		out[i] = sortKey{slot: slot, desc: k.Desc}
	}
	return out, nil
}

// ascending is the sort a merge join puts under its probe side: ascending on
// the equi-key slots.
func ascending(slots []int) []sortKey {
	out := make([]sortKey, len(slots))
	for i, s := range slots {
		out[i].slot = s
	}
	return out
}

// concatMaps resolves, per child of a concat, which child slot feeds each
// output position.
func concatMaps(plan *physical.Expr, ins []*layout) ([][]int, error) {
	maps := make([][]int, len(ins))
	for i, in := range ins {
		env := in.env()
		m := make([]int, len(plan.OutCols))
		for j := range plan.OutCols {
			slot, ok := env[plan.InputCols[i][j]]
			if !ok {
				return nil, fmt.Errorf("exec: concat input column c%d missing from child %d", plan.InputCols[i][j], i)
			}
			m[j] = slot
		}
		maps[i] = m
	}
	return maps, nil
}
