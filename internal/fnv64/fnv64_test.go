package fnv64

import "testing"

// TestWordMixingGolden pins the mixing: a string byte by byte, an integer as
// one xor-multiply of the whole word. Nothing outside a process reads a sum,
// so a change here breaks no report; it moves every memo and plan-shape key,
// and so must be deliberate.
func TestWordMixingGolden(t *testing.T) {
	h := New()
	h.String("hello")
	h.Uint64(42)
	h.Byte(7)
	if got, want := h.Sum(), uint64(0x8ae44fb77b4e8efc); got != want {
		t.Errorf("Sum = %#x, pinned %#x", got, want)
	}
	w := New()
	w.Int(-1)
	basis, prime := uint64(offset64), uint64(prime64)
	if got, want := w.Sum(), (basis^^uint64(0))*prime; got != want {
		t.Errorf("Int(-1) = %#x, want one step %#x", got, want)
	}
}

func TestIntSignedDistinct(t *testing.T) {
	a, b := New(), New()
	a.Int(-1)
	b.Int(1)
	if a.Sum() == b.Sum() {
		t.Error("-1 and 1 hash equal")
	}
}

func TestBoolAndFloat(t *testing.T) {
	a, b := New(), New()
	a.Bool(true)
	b.Bool(false)
	if a.Sum() == b.Sum() {
		t.Error("true and false hash equal")
	}
	c, d := New(), New()
	c.Float(1.5)
	d.Float(2.5)
	if c.Sum() == d.Sum() {
		t.Error("distinct floats hash equal")
	}
}

func TestOrderSensitive(t *testing.T) {
	a, b := New(), New()
	a.String("ab")
	b.String("ba")
	if a.Sum() == b.Sum() {
		t.Error("hash is order-insensitive")
	}
}
