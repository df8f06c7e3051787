package opt

import (
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/scalar"
)

// groupStats is the optimizer's cardinality estimate for a memo group: a row
// count plus per-column distinct-value estimates. Stats are a logical
// property: every expression in a group shares them, so they are computed
// from the group's first (original) expression.
//
// cols is the set of columns that have a distinct-count estimate, and
// distinct holds the estimates packed in ascending column order: the one for
// id sits at distinct[cols.Rank(id)]. Both are read-only once the stats are
// built, which is what lets scaleStats share them between groups.
type groupStats struct {
	rows     float64
	cols     scalar.ColSet
	distinct []float64
}

const (
	defaultSel  = 1.0 / 3 // selectivity of range and other opaque predicates
	isNullSel   = 0.1
	minSel      = 1e-7
	minRows     = 1e-3
	defaultDist = 10
)

// known returns the positive estimate recorded for id, if there is one.
func (s *groupStats) known(id scalar.ColumnID) (float64, bool) {
	if !s.cols.Contains(id) {
		return 0, false
	}
	d := s.distinct[s.cols.Rank(id)]
	return d, d > 0
}

func (s *groupStats) distinctOf(id scalar.ColumnID) float64 {
	if d, ok := s.known(id); ok {
		return d
	}
	return defaultDist
}

// set records the estimate of id, which must be in s.cols.
func (s *groupStats) set(id scalar.ColumnID, d float64) { s.distinct[s.cols.Rank(id)] = d }

// setClamped records, for every column of in, in's estimate clamped to rows.
func (s *groupStats) setClamped(in *groupStats, rows float64) {
	i := 0
	in.cols.ForEach(func(id scalar.ColumnID) {
		s.set(id, clampDist(in.distinct[i], rows))
		i++
	})
}

// statsBuilder computes and caches group statistics. The cache is a dense
// slice indexed by GroupID: the builder is constructed after exploration,
// when the memo's group count is final.
type statsBuilder struct {
	m     *memo.Memo
	cache []*groupStats // index = GroupID-1
	// noHistograms disables histogram-based selectivity (ablation knob).
	noHistograms bool
	// sts backs the groupStats themselves (at most one per group) and slab
	// the estimates they hold; both are good for one memo and reused for the
	// next (reset). slab is the unused tail of slabs, the latest and largest
	// chunk there has been: a chunk that runs out is replaced by one with
	// spare floats beyond the request that exhausted it — as many as the memo
	// has used so far, 32 at least — so small memos stay small, and reset
	// replaces it by one chunk as large as the whole memo needed, so a reused
	// builder soon allocates nothing.
	sts   []groupStats
	slab  []float64
	slabs []float64
	used  int // floats handed out for this memo, from every chunk
}

// reset readies the builder for memo m, whose group count is final.
func (sb *statsBuilder) reset(m *memo.Memo, noHistograms bool) {
	n := m.NumGroups()
	clear(sb.sts)
	if cap(sb.sts) < n {
		sb.sts = make([]groupStats, 0, n)
	}
	if sb.used > len(sb.slabs) {
		sb.slabs = make([]float64, sb.used)
	} else {
		clear(sb.slabs[:len(sb.slabs)-len(sb.slab)])
	}
	*sb = statsBuilder{
		m: m, cache: resized(sb.cache, n), noHistograms: noHistograms,
		sts: sb.sts[:0], slab: sb.slabs, slabs: sb.slabs,
	}
}

// newStats returns stats with the given row count and a zero estimate, to be
// filled in by the caller, for every column of cols.
func (sb *statsBuilder) newStats(rows float64, cols scalar.ColSet) *groupStats {
	n := cols.Len()
	if len(sb.slab) < n {
		sb.slabs = make([]float64, n+max(sb.used, 32))
		sb.slab = sb.slabs
	}
	st := sb.add(groupStats{rows: rows, cols: cols, distinct: sb.slab[:n:n]})
	sb.slab = sb.slab[n:]
	sb.used += n
	return st
}

// add stores st in the builder's backing array (sized for one per group, so
// the append never moves earlier ones) and returns its address.
func (sb *statsBuilder) add(st groupStats) *groupStats {
	sb.sts = append(sb.sts, st)
	return &sb.sts[len(sb.sts)-1]
}

// statsPlaceholder terminates stats recursion on (impossible in well-formed
// memos) cyclic group references. It is shared and read-only: a cycle reads
// rows=1 and default distinct counts from it, nothing ever writes.
var statsPlaceholder = &groupStats{rows: 1}

func (sb *statsBuilder) stats(g memo.GroupID) *groupStats {
	if st := sb.cache[g-1]; st != nil {
		return st
	}
	sb.cache[g-1] = statsPlaceholder
	st := sb.compute(sb.m.Group(g).Exprs[0])
	sb.cache[g-1] = st
	return st
}

func (sb *statsBuilder) compute(e *memo.MExpr) *groupStats {
	node := e.Node
	switch node.Op {
	case logical.OpGet:
		t, err := sb.m.MD.Catalog().Table(node.Table)
		if err != nil {
			return sb.newStats(1, scalar.ColSet{})
		}
		n := len(node.Cols)
		if len(t.Columns) < n {
			n = len(t.Columns)
		}
		st := sb.newStats(float64(t.Stats.RowCount), scalar.NewColSet(node.Cols[:n]...))
		for i, id := range node.Cols[:n] {
			st.set(id, float64(t.Stats.DistinctCount[t.Columns[i].Name]))
		}
		return st

	case logical.OpSelect:
		in := sb.stats(e.Kids[0])
		sel := sb.selectivity(node.Filter, in, nil)
		return sb.scaleStats(in, in.rows*sel)

	case logical.OpProject:
		in := sb.stats(e.Kids[0])
		var outs scalar.ColSet
		for _, it := range node.Projs {
			outs.Add(it.Out)
		}
		st := sb.newStats(in.rows, outs)
		for _, it := range node.Projs {
			if ref, ok := it.E.(*scalar.ColRef); ok {
				st.set(it.Out, in.distinctOf(ref.ID))
			} else {
				st.set(it.Out, clampDist(in.rows, in.rows))
			}
		}
		return st

	case logical.OpJoin, logical.OpLeftJoin:
		l := sb.stats(e.Kids[0])
		r := sb.stats(e.Kids[1])
		sel := sb.selectivity(node.On, l, r)
		rows := l.rows * r.rows * sel
		if node.Op == logical.OpLeftJoin && rows < l.rows {
			rows = l.rows
		}
		rows = maxf(rows, minRows)
		st := sb.newStats(rows, l.cols.Union(r.cols))
		st.setClamped(l, rows)
		st.setClamped(r, rows)
		return st

	case logical.OpSemiJoin, logical.OpAntiJoin:
		l := sb.stats(e.Kids[0])
		r := sb.stats(e.Kids[1])
		sel := sb.selectivity(node.On, l, r)
		p := minf(1, r.rows*sel) // probability a left row has a match
		rows := l.rows * p
		if node.Op == logical.OpAntiJoin {
			rows = l.rows * (1 - p)
		}
		return sb.scaleStats(l, maxf(rows, minRows))

	case logical.OpGroupBy:
		in := sb.stats(e.Kids[0])
		outs := scalar.NewColSet(node.GroupCols...)
		for _, a := range node.Aggs {
			outs.Add(a.Out)
		}
		if len(node.GroupCols) == 0 {
			st := sb.newStats(1, outs)
			for _, a := range node.Aggs {
				st.set(a.Out, 1)
			}
			return st
		}
		groups := 1.0
		for _, c := range node.GroupCols {
			groups *= in.distinctOf(c)
			if groups > in.rows {
				groups = in.rows
				break
			}
		}
		groups = maxf(minf(groups, in.rows), minRows)
		st := sb.newStats(groups, outs)
		for _, c := range node.GroupCols {
			st.set(c, clampDist(in.distinctOf(c), groups))
		}
		for _, a := range node.Aggs {
			st.set(a.Out, clampDist(groups, groups))
		}
		return st

	case logical.OpUnionAll:
		l := sb.stats(e.Kids[0])
		r := sb.stats(e.Kids[1])
		st := sb.newStats(l.rows+r.rows, scalar.NewColSet(node.OutCols...))
		for i, out := range node.OutCols {
			d := defaultDist * 2.0
			if len(node.InputCols) == 2 && i < len(node.InputCols[0]) && i < len(node.InputCols[1]) {
				d = l.distinctOf(node.InputCols[0][i]) + r.distinctOf(node.InputCols[1][i])
			}
			st.set(out, clampDist(d, st.rows))
		}
		return st

	case logical.OpLimit:
		in := sb.stats(e.Kids[0])
		return sb.scaleStats(in, minf(in.rows, float64(node.N)))

	case logical.OpSort:
		return sb.stats(e.Kids[0])
	}
	return sb.newStats(1, scalar.ColSet{})
}

// selectivity estimates the fraction of rows satisfying pred. For join
// predicates, r carries the right side's stats; for filters r is nil.
func (sb *statsBuilder) selectivity(pred scalar.Expr, l, r *groupStats) float64 {
	dist := func(id scalar.ColumnID) float64 {
		if r != nil {
			if d, ok := r.known(id); ok {
				return d
			}
		}
		return l.distinctOf(id)
	}
	var selOf func(e scalar.Expr) float64
	selOf = func(e scalar.Expr) float64 {
		switch t := e.(type) {
		case *scalar.And:
			s := 1.0
			for _, k := range t.Kids {
				s *= selOf(k)
			}
			return s
		case *scalar.Or:
			inv := 1.0
			for _, k := range t.Kids {
				inv *= 1 - selOf(k)
			}
			return 1 - inv
		case *scalar.Not:
			return maxf(1-selOf(t.Kid), minSel)
		case *scalar.IsNull:
			return isNullSel
		case *scalar.Cmp:
			lref, lok := t.L.(*scalar.ColRef)
			rref, rok := t.R.(*scalar.ColRef)
			// Column-versus-constant comparisons consult the base table's
			// equi-depth histogram when one exists.
			if lok && !rok {
				if c, isConst := t.R.(*scalar.Const); isConst {
					if s, ok := sb.histSelectivity(t.Op, lref.ID, c.D); ok {
						return s
					}
				}
			}
			if rok && !lok {
				if c, isConst := t.L.(*scalar.Const); isConst {
					if s, ok := sb.histSelectivity(t.Op.Commute(), rref.ID, c.D); ok {
						return s
					}
				}
			}
			var eq float64
			switch {
			case lok && rok:
				eq = 1 / maxf(maxf(dist(lref.ID), dist(rref.ID)), 1)
			case lok:
				eq = 1 / maxf(dist(lref.ID), 1)
			case rok:
				eq = 1 / maxf(dist(rref.ID), 1)
			default:
				eq = defaultSel
			}
			switch t.Op {
			case scalar.CmpEQ:
				return maxf(eq, minSel)
			case scalar.CmpNE:
				return maxf(1-eq, minSel)
			default:
				return defaultSel
			}
		case *scalar.Const:
			return 1
		default:
			return defaultSel
		}
	}
	return maxf(minf(selOf(pred), 1), minSel)
}

// histSelectivity estimates a column-versus-constant comparison through the
// base table's equi-depth histogram. ok is false when the column is computed
// or has no histogram; the caller then falls back to distinct-count
// heuristics. Base-table histograms are used at every plan level — the usual
// approximation that post-operator distributions resemble base ones.
func (sb *statsBuilder) histSelectivity(op scalar.CmpOp, id scalar.ColumnID, d datum.Datum) (float64, bool) {
	if sb.noHistograms {
		return 0, false
	}
	tbl, idx, ok := sb.m.MD.BaseColumn(id)
	if !ok {
		return 0, false
	}
	h := tbl.Stats.Histograms[tbl.Columns[idx].Name]
	if h == nil || h.TotalCount == 0 {
		return 0, false
	}
	v, ok := histValue(d)
	if !ok {
		return 0, false
	}
	nullFrac := float64(h.NullCount) / float64(h.TotalCount)
	var s float64
	switch op {
	case scalar.CmpEQ:
		s = h.SelectivityEQ(v)
	case scalar.CmpNE:
		s = 1 - h.SelectivityEQ(v) - nullFrac
	case scalar.CmpLT:
		s = h.SelectivityLT(v, false)
	case scalar.CmpLE:
		s = h.SelectivityLT(v, true)
	case scalar.CmpGT:
		s = 1 - h.SelectivityLT(v, true) - nullFrac
	case scalar.CmpGE:
		s = 1 - h.SelectivityLT(v, false) - nullFrac
	default:
		return 0, false
	}
	return maxf(minf(s, 1), minSel), true
}

func histValue(d datum.Datum) (float64, bool) {
	switch d.K {
	case datum.KindInt, datum.KindDate:
		return float64(d.I), true
	case datum.KindFloat:
		return d.Float(), true
	default:
		return 0, false
	}
}

func (sb *statsBuilder) scaleStats(in *groupStats, rows float64) *groupStats {
	rows = maxf(rows, minRows)
	// Estimates are never written after construction, so when clamping would
	// leave every distinct count unchanged the input's are shared instead of
	// cloned.
	share := true
	for _, d := range in.distinct {
		if clampDist(d, rows) != d {
			share = false
			break
		}
	}
	if share {
		return sb.add(groupStats{rows: rows, cols: in.cols, distinct: in.distinct})
	}
	st := sb.newStats(rows, in.cols)
	for i, d := range in.distinct {
		st.distinct[i] = clampDist(d, rows)
	}
	return st
}

func clampDist(d, rows float64) float64 {
	return maxf(minf(d, rows), 1)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
