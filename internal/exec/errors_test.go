package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// TestSortMissingKeyColumn: a sort key absent from the input must fail the
// execution. The old implementation silently fell back to slot 0, producing
// a wrong-but-plausible ordering that poisoned the correctness oracle.
func TestSortMissingKeyColumn(t *testing.T) {
	plan := sortPlan(scanT1(), logical.SortKey{Col: 99})
	_, err := Run(plan, testCatalog())
	if err == nil || !strings.Contains(err.Error(), "sort key column c99") {
		t.Fatalf("err = %v, want missing sort key column error", err)
	}
	// RunAnalyze compiles through the same compiler and must fail identically.
	if _, _, err := RunAnalyze(plan, testCatalog()); err == nil {
		t.Error("RunAnalyze must reject the same plan")
	}
}

// TestJoinMissingKeyColumn: hash and merge joins must reject equi-key
// columns that are not produced by their inputs instead of probing slot 0 —
// on both engines, and for a merge join with the join's error, not that of
// the sort under its probe side.
func TestJoinMissingKeyColumn(t *testing.T) {
	for op, name := range map[physical.Op]string{physical.OpHashJoin: "hash", physical.OpMergeJoin: "merge"} {
		for _, side := range []string{"left", "right"} {
			plan := joinPlan(op, physical.JoinInner)
			if side == "left" {
				plan.EquiLeft = []scalar.ColumnID{99}
			} else {
				plan.EquiRight = []scalar.ColumnID{99}
			}
			for _, eng := range []Engine{EngineRow, EngineBatch} {
				_, err := RunEngine(eng, plan, testCatalog(), 0, 0)
				if want := fmt.Sprintf("exec: %s join key column c99 not in %s input", name, side); err == nil || err.Error() != want {
					t.Errorf("%s/%s on the %s engine: err = %v, want %q", op, side, eng, err, want)
				}
			}
		}
	}
}

// failingCloseIter yields a fixed set of rows, one batch each, and then fails
// on Close.
type failingCloseIter struct {
	rows     []datum.Row
	pos      int
	nextErr  error
	closeErr error
}

func (f *failingCloseIter) Open() error { f.pos = 0; return nil }

func (f *failingCloseIter) Next() (*Batch, error) {
	if f.nextErr != nil && f.pos == len(f.rows) {
		return nil, f.nextErr
	}
	if f.pos >= len(f.rows) {
		return nil, nil
	}
	b := &Batch{Idx: []int{0}, Rows: f.rows[f.pos : f.pos+1]}
	f.pos++
	return b, nil
}

func (f *failingCloseIter) Close() error { return f.closeErr }

// TestRunPropagatesCloseError: a Close failure after a clean scan must not
// be swallowed — resources failing to release can invalidate the results.
func TestRunPropagatesCloseError(t *testing.T) {
	closeErr := errors.New("close failed")
	it := &failingCloseIter{rows: intRows(1, 2), closeErr: closeErr}
	rows, err := runBatch(it, 0)
	if !errors.Is(err, closeErr) {
		t.Fatalf("err = %v, want the Close error", err)
	}
	if rows != nil {
		t.Errorf("rows = %v, want nil when Close fails", rows)
	}
}

// TestRunPrefersNextError: when both Next and Close fail, the Next error is
// the root cause and must win.
func TestRunPrefersNextError(t *testing.T) {
	nextErr := errors.New("next failed")
	it := &failingCloseIter{rows: intRows(1), nextErr: nextErr, closeErr: errors.New("close failed")}
	_, err := runBatch(it, 0)
	if !errors.Is(err, nextErr) {
		t.Fatalf("err = %v, want the Next error", err)
	}
}
