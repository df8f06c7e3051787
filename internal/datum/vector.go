package datum

// Vec is a column vector: the values of one column across a batch of rows.
// Batch operators reuse Vecs across batches via Reset, so a Vec's backing
// array is only valid until the producer's next batch.
type Vec struct {
	D []Datum
}

// Reset truncates the vector to length zero, retaining capacity.
func (v *Vec) Reset() { v.D = v.D[:0] }

// Append adds a datum.
func (v *Vec) Append(d Datum) { v.D = append(v.D, d) }

// AppendGather appends src[i] for every index in idx: the bulk equivalent of
// an Append loop, with the slice growth hoisted out of the per-datum path.
func (v *Vec) AppendGather(src []Datum, idx []int) {
	n := len(v.D)
	total := n + len(idx)
	if cap(v.D) < total {
		grown := 2 * cap(v.D)
		if grown < total {
			grown = total
		}
		nd := make([]Datum, n, grown)
		copy(nd, v.D)
		v.D = nd
	}
	v.D = v.D[:total]
	dst := v.D[n:]
	for k, i := range idx {
		dst[k] = src[i]
	}
}

// Len returns the number of values in the vector.
func (v *Vec) Len() int { return len(v.D) }

// IsNull reports whether value i is NULL.
func (v *Vec) IsNull(i int) bool { return v.D[i].K == KindNull }

// ColumnVecs transposes rows into width column vectors. It is the bulk
// loading path for columnar caches and row→batch adapters; each row must have
// at least width datums.
func ColumnVecs(rows []Row, width int) []Vec {
	vecs := make([]Vec, width)
	for c := range vecs {
		vecs[c].D = make([]Datum, 0, len(rows))
	}
	for _, r := range rows {
		for c := 0; c < width; c++ {
			vecs[c].Append(r[c])
		}
	}
	return vecs
}
