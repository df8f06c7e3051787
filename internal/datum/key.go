package datum

import (
	"math"
	"math/bits"
	"slices"
)

// IsNaN reports whether d is a FLOAT NaN.
func (d *Datum) IsNaN() bool { return d.K == KindFloat && math.IsNaN(d.Float()) }

// KeyEqual reports whether a and b are the same join or group-by key part,
// that is whether their AppendKey encodings are equal: numbers by float64
// image (−0 = +0, all NaNs one key), strings by intern ID, bools by value,
// NULL by itself. Off NULL that is Compare equality, but for NaN.
func KeyEqual(a, b *Datum) bool {
	if an, ok := a.numeric(); ok {
		bn, ok := b.numeric()
		return ok && (an == bn || an != an && bn != bn)
	}
	return a.K == b.K && (a.K != KindString || a.I == b.I) && (a.K != KindBool || a.Bool() == b.Bool())
}

// KeyHash hashes a key part so that KeyEqual parts hash alike: a number to
// its float64 image's bits, anything else to a seed of its kind plus its bool
// value or string intern ID.
func KeyHash(d *Datum) uint64 {
	if f, ok := d.numeric(); ok {
		if f != f {
			f = math.NaN()
		}
		return math.Float64bits(f + 0) // −0 + 0 is +0
	}
	h := uint64(d.K+1) << 59
	switch {
	case d.K == KindString:
		h += uint64(d.I)
	case d.K == KindBool && d.Bool():
		h++
	}
	return h
}

// KeyFlags reports whether the key row ri of cols holds at slots has a NULL
// part, which SQL equality never matches, and whether it has a NaN part.
func KeyFlags(cols []Vec, slots []int, ri int) (null, nan bool) {
	for _, s := range slots {
		d := &cols[s].D[ri]
		if d.K == KindNull {
			return true, nan
		}
		nan = nan || d.IsNaN()
	}
	return false, nan
}

// KeyTable numbers the distinct keys of a column set densely in first-seen
// order. A power-of-two directory, indexed by the top bits of a key's hash,
// heads a chain per bucket, latest key first; a probe compares the stored
// hash, then the parts of the row that first held the key, with KeyEqual. No
// text is built per row.
type KeyTable struct {
	width  int
	shift  uint     // 64 - log2(len(dir)): a hash's bucket is h >> shift
	dir    []int32  // bucket -> 1 + its latest key, or 0
	hashes []uint64 // hashes[k]: key k's hash
	chain  []int32  // chain[k]: the previous key in k's bucket, or -1
	parts  []Datum  // key k's parts: parts[k*width : (k+1)*width]
}

// Reset empties the table for keys of width parts, keeping its storage.
func (t *KeyTable) Reset(width int) { t.reset(width, 0) }

// reset empties the table with a directory that holds n keys at a load of at
// most ½.
func (t *KeyTable) reset(width, n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	t.setDir(size)
	t.width, t.hashes, t.chain, t.parts = width, t.hashes[:0], t.chain[:0], t.parts[:0]
}

// setDir gives the table an empty directory of size buckets, a power of two,
// clearing only those it re-slices.
func (t *KeyTable) setDir(size int) {
	t.dir = Grow(t.dir[:0], size)[:size]
	clear(t.dir)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// Len returns the number of keys.
func (t *KeyTable) Len() int { return len(t.chain) }

// Key returns key k's parts, which callers must not modify.
func (t *KeyTable) Key(k int32) []Datum { return t.parts[int(k)*t.width : (int(k)+1)*t.width] }

// Add returns the number of the key row ri of cols holds at slots, numbering
// it when it is new. It doubles the directory when the load passes ½.
func (t *KeyTable) Add(cols []Vec, slots []int, ri int) int32 {
	h := keyHash(cols, slots, ri)
	if k := t.find(h, cols, slots, ri); k >= 0 {
		return k
	}
	k := int32(len(t.chain))
	t.hashes = append(Grow(t.hashes, 1), h)
	t.chain = append(Grow(t.chain, 1), t.dir[h>>t.shift]-1)
	t.dir[h>>t.shift] = k + 1
	if 2*len(t.chain) > len(t.dir) { // relink every key, in order: latest first again
		t.setDir(2 * len(t.dir))
		for j, hj := range t.hashes {
			t.chain[j], t.dir[hj>>t.shift] = t.dir[hj>>t.shift]-1, int32(j)+1
		}
	}
	t.parts = Grow(t.parts, len(slots))
	for _, s := range slots {
		t.parts = append(t.parts, cols[s].D[ri])
	}
	return k
}

func keyHash(cols []Vec, slots []int, ri int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, s := range slots {
		h = (h ^ KeyHash(&cols[s].D[ri])) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// find returns the number of the key with hash h that row ri of cols holds at
// slots; -1 when it is absent. It only reads the table, so workers may probe a
// shared index at once.
func (t *KeyTable) find(h uint64, cols []Vec, slots []int, ri int) int32 {
next:
	for k := t.dir[h>>t.shift] - 1; k >= 0; k = t.chain[k] {
		if t.hashes[k] != h {
			continue
		}
		for i, s := range slots {
			if !KeyEqual(&cols[s].D[ri], &t.parts[int(k)*t.width+i]) {
				continue next
			}
		}
		return k
	}
	return -1
}

// KeyIndex groups rows by key: the rows holding key k of Keys are
// Rows[Start[k]:Start[k+1]], in row order; rows with a NULL key part are left
// out. NaN reports a NaN key part, which Compare calls equal to every number:
// a join must then find its candidates by scanning.
type KeyIndex struct {
	Keys        KeyTable
	Start, Rows []int32
	NaN         bool
	ids         []int32 // each row's key, or -1
}

// Build indexes rows 0..n-1 of cols by their key at slots, reusing storage.
func (x *KeyIndex) Build(cols []Vec, slots []int, n int) {
	x.Keys.reset(len(slots), n)
	x.NaN, x.ids = false, Grow(x.ids[:0], n)
	for ri := 0; ri < n; ri++ {
		k := int32(-1)
		if null, nan := KeyFlags(cols, slots, ri); !null {
			k, x.NaN = x.Keys.Add(cols, slots, ri), x.NaN || nan
		}
		x.ids = append(x.ids, k)
	}
	// Counting sort: Start[k] becomes key k's first position, advances as
	// rows are placed, ends at key k's end and shifts into Start[k+1].
	nk := x.Keys.Len()
	x.Start = slices.Grow(x.Start[:0], nk+1)[:nk+1]
	clear(x.Start)
	for _, k := range x.ids {
		x.Start[k+1]++ // the NULL rows' count lands in Start[0] and is reset below
	}
	x.Start[0] = 0
	for k := 1; k <= nk; k++ {
		x.Start[k] += x.Start[k-1]
	}
	x.Rows = slices.Grow(x.Rows[:0], int(x.Start[nk]))[:x.Start[nk]]
	for ri, k := range x.ids {
		if k >= 0 {
			x.Rows[x.Start[k]], x.Start[k] = int32(ri), x.Start[k]+1
		}
	}
	copy(x.Start[1:], x.Start[:nk])
	x.Start[0] = 0
}

// Lookup returns the indexed rows holding the key row ri of cols holds at
// slots, which has no NULL part; nil when there are none.
func (x *KeyIndex) Lookup(cols []Vec, slots []int, ri int) []int32 {
	k := x.Keys.find(keyHash(cols, slots, ri), cols, slots, ri)
	if k < 0 {
		return nil
	}
	return x.Rows[x.Start[k]:x.Start[k+1]]
}
