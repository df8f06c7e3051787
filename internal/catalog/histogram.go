package catalog

import (
	"sort"

	"qtrtest/internal/datum"
)

// Histogram is an equi-depth histogram over one numeric (or date) column.
// The optimizer uses it for range-predicate selectivity, improving on the
// fixed 1/3 guess for inequality comparisons.
type Histogram struct {
	// Buckets are in ascending order; each covers (prev.Upper, Upper] and
	// holds Count rows, of which Distinct are distinct values.
	Buckets []Bucket
	// NullCount rows have NULL in the column and belong to no bucket.
	NullCount int64
	// TotalCount includes NULLs.
	TotalCount int64
}

// Bucket is one histogram cell.
type Bucket struct {
	Upper    float64
	Count    int64
	Distinct int64
}

// numericValue projects a datum onto the histogram domain.
func numericValue(d datum.Datum) (float64, bool) {
	switch d.K {
	case datum.KindInt, datum.KindDate:
		return float64(d.I), true
	case datum.KindFloat:
		return d.Float(), true
	default:
		return 0, false
	}
}

// BuildHistogram constructs an equi-depth histogram with at most maxBuckets
// buckets from the column values. It returns nil when the column has no
// numeric values (string and boolean columns keep distinct-count estimation
// only).
func BuildHistogram(rows []datum.Row, col int, maxBuckets int) *Histogram {
	if maxBuckets < 1 {
		maxBuckets = 1
	}
	var vals []float64
	var nulls int64
	for _, r := range rows {
		if r[col].IsNull() {
			nulls++
			continue
		}
		v, ok := numericValue(r[col])
		if !ok {
			return nil
		}
		vals = append(vals, v)
	}
	h := &Histogram{NullCount: nulls, TotalCount: int64(len(rows))}
	if len(vals) == 0 {
		return h
	}
	sort.Float64s(vals)
	perBucket := (len(vals) + maxBuckets - 1) / maxBuckets
	if perBucket < 1 {
		perBucket = 1
	}
	for start := 0; start < len(vals); {
		end := start + perBucket
		if end > len(vals) {
			end = len(vals)
		}
		// Extend the bucket to include all duplicates of its upper bound,
		// so bucket boundaries fall between distinct values.
		for end < len(vals) && vals[end] == vals[end-1] {
			end++
		}
		distinct := int64(1)
		for i := start + 1; i < end; i++ {
			if vals[i] != vals[i-1] {
				distinct++
			}
		}
		h.Buckets = append(h.Buckets, Bucket{
			Upper:    vals[end-1],
			Count:    int64(end - start),
			Distinct: distinct,
		})
		start = end
	}
	return h
}

// rowCount returns the number of non-NULL rows covered by the histogram.
func (h *Histogram) rowCount() int64 {
	return h.TotalCount - h.NullCount
}

// SelectivityLT estimates the fraction of ALL rows (including NULLs, which
// never satisfy a comparison) with value < v (or <= v when orEqual).
func (h *Histogram) SelectivityLT(v float64, orEqual bool) float64 {
	if h.TotalCount == 0 {
		return 0
	}
	nonNull := h.rowCount()
	if nonNull == 0 {
		return 0
	}
	var below float64
	lower := h.lowerBound()
	for _, b := range h.Buckets {
		if v >= b.Upper {
			below += float64(b.Count)
			if v == b.Upper && !orEqual {
				// Remove an estimate of the rows exactly equal to the
				// boundary value.
				below -= float64(b.Count) / float64(max(b.Distinct, 1))
			}
			lower = b.Upper
			continue
		}
		// v falls inside this bucket: linear interpolation.
		width := b.Upper - lower
		if width > 0 && v > lower {
			below += float64(b.Count) * (v - lower) / width
		}
		break
	}
	if below < 0 {
		below = 0
	}
	if below > float64(nonNull) {
		below = float64(nonNull)
	}
	return below / float64(h.TotalCount)
}

// SelectivityEQ estimates the fraction of all rows equal to v.
func (h *Histogram) SelectivityEQ(v float64) float64 {
	if h.TotalCount == 0 {
		return 0
	}
	lower := h.lowerBound()
	for _, b := range h.Buckets {
		if v <= b.Upper {
			if v <= lower && b.Upper != v && len(h.Buckets) > 0 && b != h.Buckets[0] {
				return 0 // falls between buckets
			}
			return float64(b.Count) / float64(max(b.Distinct, 1)) / float64(h.TotalCount)
		}
		lower = b.Upper
	}
	return 0
}

// lowerBound returns a synthetic lower edge below the first bucket.
func (h *Histogram) lowerBound() float64 {
	if len(h.Buckets) == 0 {
		return 0
	}
	first := h.Buckets[0]
	if len(h.Buckets) > 1 {
		// Assume the first bucket spans as much as the second.
		return first.Upper - (h.Buckets[1].Upper - first.Upper)
	}
	return first.Upper - 1
}

// histogramBuckets is the default resolution; small enough to build fast at
// load time, large enough to resolve TPC-H value ranges.
const histogramBuckets = 16

// ComputeHistograms builds histograms for every numeric column of the table;
// called by ComputeStats.
func (t *Table) ComputeHistograms() {
	if t.Stats.Histograms == nil {
		t.Stats.Histograms = make(map[string]*Histogram, len(t.Columns))
	}
	for i, c := range t.Columns {
		switch c.Type {
		case datum.TypeInt, datum.TypeFloat, datum.TypeDate:
			if h := BuildHistogram(t.Rows, i, histogramBuckets); h != nil {
				t.Stats.Histograms[c.Name] = h
			}
		}
	}
}
