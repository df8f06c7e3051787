package scalar

import (
	"fmt"
	"math/bits"
)

// colSetInline is the number of words a ColSet carries by value. Column IDs
// are small dense ints per query (a five-table TPC-H join stays under 100),
// so two words cover almost every set without touching the heap.
const colSetInline = 2

// ColSet is a set of ColumnIDs, stored as a bitset: bit id of the word
// sequence small[0], small[1], large[0], ... is set when id is a member. The
// zero value is the empty set. A ColSet is value-like: assignment copies it,
// every method but Add leaves its receiver and operands untouched, and Union
// returns storage of its own. The one caveat is Add on a copy, which may write
// into overflow words the original still sees; sets that are shared (a memo
// group's column set) are therefore read-only, and a set to be extended is
// derived with Union or built fresh.
type ColSet struct {
	small [colSetInline]uint64
	large []uint64 // ids from 64*colSetInline up; nil until one is added
}

// NewColSet builds a set from ids.
func NewColSet(ids ...ColumnID) ColSet {
	var s ColSet
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts id. It panics on a negative id, which no Metadata allocates.
func (s *ColSet) Add(id ColumnID) {
	if id < 0 {
		panic(fmt.Sprintf("scalar: negative column id %d", id))
	}
	w, bit := int(id)>>6, uint64(1)<<(uint(id)&63)
	if w < colSetInline {
		s.small[w] |= bit
		return
	}
	w -= colSetInline
	if w >= len(s.large) {
		grown := make([]uint64, w+1)
		copy(grown, s.large)
		s.large = grown
	}
	s.large[w] |= bit
}

// Contains reports membership.
func (s ColSet) Contains(id ColumnID) bool {
	w := int(id) >> 6
	if uint(w) < colSetInline {
		return s.small[w]&(1<<(uint(id)&63)) != 0
	}
	w -= colSetInline
	return w >= 0 && w < len(s.large) && s.large[w]&(1<<(uint(id)&63)) != 0
}

// Len returns the number of members.
func (s ColSet) Len() int {
	n := 0
	for _, w := range s.small {
		n += bits.OnesCount64(w)
	}
	for _, w := range s.large {
		n += bits.OnesCount64(w)
	}
	return n
}

// Rank returns the number of members smaller than id: for a member, its index
// in Sorted.
func (s ColSet) Rank(id ColumnID) int {
	if id <= 0 {
		return 0
	}
	w, below := int(id)>>6, uint64(1)<<(uint(id)&63)-1
	n := 0
	for i, word := range s.small {
		switch {
		case i < w:
			n += bits.OnesCount64(word)
		case i == w:
			n += bits.OnesCount64(word & below)
		}
	}
	for i, word := range s.large {
		switch {
		case colSetInline+i < w:
			n += bits.OnesCount64(word)
		case colSetInline+i == w:
			n += bits.OnesCount64(word & below)
		}
	}
	return n
}

// SubsetOf reports whether every element of s is in o.
func (s ColSet) SubsetOf(o ColSet) bool {
	for i, w := range s.small {
		if w&^o.small[i] != 0 {
			return false
		}
	}
	for i, w := range s.large {
		if i < len(o.large) {
			w &^= o.large[i]
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// Equals reports whether s and o have the same members.
func (s ColSet) Equals(o ColSet) bool {
	return s.SubsetOf(o) && o.SubsetOf(s)
}

// Union returns a new set with all elements of s and o.
func (s ColSet) Union(o ColSet) ColSet {
	var out ColSet
	for i := range out.small {
		out.small[i] = s.small[i] | o.small[i]
	}
	long, short := s.large, o.large
	if len(long) < len(short) {
		long, short = short, long
	}
	if len(long) > 0 {
		out.large = make([]uint64, len(long))
		copy(out.large, long)
		for i, w := range short {
			out.large[i] |= w
		}
	}
	return out
}

// Intersects reports whether the sets share an element.
func (s ColSet) Intersects(o ColSet) bool {
	for i, w := range s.small {
		if w&o.small[i] != 0 {
			return true
		}
	}
	for i, w := range s.large {
		if i < len(o.large) && w&o.large[i] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every member in ascending order.
func (s ColSet) ForEach(fn func(ColumnID)) {
	for i, w := range s.small {
		eachBit(w, i, fn)
	}
	for i, w := range s.large {
		eachBit(w, colSetInline+i, fn)
	}
}

func eachBit(w uint64, word int, fn func(ColumnID)) {
	for ; w != 0; w &= w - 1 {
		fn(ColumnID(word<<6 + bits.TrailingZeros64(w)))
	}
}

// Sorted returns the ids in ascending order.
func (s ColSet) Sorted() []ColumnID {
	out := make([]ColumnID, 0, s.Len())
	s.ForEach(func(id ColumnID) { out = append(out, id) })
	return out
}
