// Package exec executes physical plans. Correctness testing (§2.3) executes
// Plan(q) and Plan(q,¬R) and compares their results as multisets; this
// package provides both the execution and the comparison oracle. One compiler
// (compile.go) builds two engines from disjoint operator sets: the columnar
// batch engine everything runs on, and the Volcano row engine in this file
// and join.go, its differential reference.
package exec

import (
	"errors"
	"fmt"
	"slices"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// iterator is the row operator interface: Open, then Next until it returns a
// nil row, then Close.
type iterator interface {
	Open() error
	// Next returns the next row, or (nil, nil) at end of stream.
	Next() (datum.Row, error)
	Close() error
}

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

// runIter opens, drains and closes an iterator. A Close error on an
// otherwise successful scan is a real failure and must not be swallowed.
// maxRows > 0 caps the result size.
func runIter(it iterator, maxRows int) (out []datum.Row, err error) {
	defer func() {
		if cerr := it.Close(); cerr != nil && err == nil {
			out, err = nil, cerr
		}
	}()
	if err := it.Open(); err != nil {
		return nil, err
	}
	for {
		row, err := it.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		if maxRows > 0 && len(out) >= maxRows {
			return nil, ErrRowLimit
		}
		out = append(out, row)
	}
}

// ---- scan -----------------------------------------------------------------

type scanIter struct {
	name string
	st   *runState
	rows []datum.Row // the run's table, from Open to Close
	pos  int
}

func (s *scanIter) Open() error {
	t, err := s.st.cat.Table(s.name)
	if err != nil {
		return err
	}
	s.rows, s.pos = t.Rows, 0
	return nil
}

func (s *scanIter) Next() (datum.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, nil
}

func (s *scanIter) Close() error { s.rows = nil; return nil }

// ---- filter ---------------------------------------------------------------

type filterIter struct {
	child iterator
	pred  scalar.Expr
	env   scalar.Env
}

func (f *filterIter) Open() error { return f.child.Open() }

func (f *filterIter) Next() (datum.Row, error) {
	for {
		row, err := f.child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		ok, err := scalar.EvalBool(f.pred, row, f.env)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

func (f *filterIter) Close() error { return f.child.Close() }

// ---- project ----------------------------------------------------------------

type projectIter struct {
	child iterator
	items []logical.ProjItem
	env   scalar.Env
}

func (p *projectIter) Open() error { return p.child.Open() }

func (p *projectIter) Next() (datum.Row, error) {
	row, err := p.child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	out := make(datum.Row, len(p.items))
	for i, it := range p.items {
		d, err := scalar.Eval(it.E, row, p.env)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

func (p *projectIter) Close() error { return p.child.Close() }

// ---- sort -------------------------------------------------------------------

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

type sortIter struct {
	child iterator
	keys  []sortKey
	rows  []datum.Row
	pos   int
}

func (s *sortIter) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	for {
		row, err := s.child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		s.rows = append(s.rows, row)
	}
	slices.SortStableFunc(s.rows, func(a, b datum.Row) int {
		for _, k := range s.keys {
			if c := datum.TotalCompare(a[k.slot], b[k.slot]); c != 0 {
				return k.apply(c)
			}
		}
		return 0
	})
	s.pos = 0
	return nil
}

func (s *sortIter) Next() (datum.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, nil
}

func (s *sortIter) Close() error {
	s.rows = nil
	return s.child.Close()
}

// ---- limit --------------------------------------------------------------------

type limitIter struct {
	child iterator
	n     int64
	seen  int64
}

func (l *limitIter) Open() error { l.seen = 0; return l.child.Open() }

func (l *limitIter) Next() (datum.Row, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	row, err := l.child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	l.seen++
	return row, nil
}

func (l *limitIter) Close() error { return l.child.Close() }

// ---- concat (UNION ALL) ----------------------------------------------------------

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

type concatIter struct {
	kids []iterator
	cur  int
	maps [][]int // per child: output position -> child slot
}

func (c *concatIter) Open() error {
	c.cur = 0
	for _, kid := range c.kids {
		if err := kid.Open(); err != nil {
			return err
		}
	}
	return nil
}

func (c *concatIter) Next() (datum.Row, error) {
	for c.cur < len(c.kids) {
		row, err := c.kids[c.cur].Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			c.cur++
			continue
		}
		out := make(datum.Row, len(c.maps[c.cur]))
		for j, slot := range c.maps[c.cur] {
			out[j] = row[slot]
		}
		return out, nil
	}
	return nil, nil
}

func (c *concatIter) Close() error { return closeAll(c.kids) }

// closeAll closes every operator of a list and returns the first error.
func closeAll[T interface{ Close() error }](kids []T) error {
	var first error
	for _, k := range kids {
		if err := k.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
