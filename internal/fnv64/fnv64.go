// Package fnv64 is an allocation-free streaming 64-bit hasher for the
// optimizer's structural fingerprints: FNV-1a over words. A string is mixed
// byte by byte, but an integer, a float or a bool is one word, mixed in a
// single xor-multiply step rather than eight byte rounds — the memo's
// interning keys are almost all small integers (operators, column and group
// IDs). The stdlib hash/fnv forces every write through an []byte and an
// interface, which costs allocations on the interning hot path; this
// value-type state hashes ints and strings directly. The sum is
// deterministic across processes (unlike hash/maphash), so fingerprints can
// be logged and compared between runs, and correctness never depends on its
// quality: the memo backs every fingerprint bucket with a full
// structural-equality check, and the fuzzer only counts distinct plan shapes.
package fnv64

import "math"

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash is in-progress hash state. The zero value is NOT ready to use; start
// from New.
type Hash struct {
	v uint64
}

// New returns a hasher seeded with the FNV-1a offset basis.
func New() Hash { return Hash{v: offset64} }

// Sum returns the current hash value.
func (h Hash) Sum() uint64 { return h.v }

// Byte mixes a single byte.
func (h *Hash) Byte(b byte) {
	h.v = (h.v ^ uint64(b)) * prime64
}

// String mixes the bytes of s.
func (h *Hash) String(s string) {
	v := h.v
	for i := 0; i < len(s); i++ {
		v = (v ^ uint64(s[i])) * prime64
	}
	h.v = v
}

// Uint64 mixes x as one word.
func (h *Hash) Uint64(x uint64) {
	h.v = (h.v ^ x) * prime64
}

// Int mixes a signed integer.
func (h *Hash) Int(x int64) { h.Uint64(uint64(x)) }

// Float mixes a float by its IEEE-754 bit pattern.
func (h *Hash) Float(f float64) { h.Uint64(math.Float64bits(f)) }

// Bool mixes a boolean as one byte.
func (h *Hash) Bool(b bool) {
	if b {
		h.Byte(1)
	} else {
		h.Byte(0)
	}
}
