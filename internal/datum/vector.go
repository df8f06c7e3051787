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
	v.D = Grow(v.D, len(idx))[:n+len(idx)]
	dst := v.D[n:]
	for k, i := range idx {
		dst[k] = src[i]
	}
}

// Grow returns s with room for n more elements, at least doubling its
// capacity when it must grow. Slabs that pooled scratch builds up row by row
// grow through it: append's growth falls to 1.25x for large slices, which
// allocates a slab about five times over on its way to full size.
func Grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make([]T, 0, max(2*cap(s), len(s)+n)), s...)
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
