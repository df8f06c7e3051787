package datum

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// internCases are strings a key or a literal must survive: empty, quoted,
// separator bytes, multi-byte UTF-8 and a long one.
var internCases = []string{"", "a", "b", "O'Brien", "x|y", "a:b;c", "é", strings.Repeat("k", 1024)}

// Interning is canonical: two string datums are equal exactly when their
// strings are, whatever order they were interned in, and Str gives the string
// back. "" is ID 0, the zero payload.
func TestNewStringCanonical(t *testing.T) {
	for _, a := range internCases {
		da := NewString(a)
		if got := da.Str(); got != a {
			t.Errorf("NewString(%q).Str() = %q", a, got)
		}
		for _, b := range internCases {
			if db := NewString(b); (da == db) != (a == b) {
				t.Errorf("NewString(%q) == NewString(%q) is %v", a, b, da == db)
			}
		}
	}
	if NewString("") != (Datum{K: KindString}) {
		t.Errorf(`NewString("") = %#v, want ID 0`, NewString(""))
	}
	if s := NewInt(3).Str(); s != "" {
		t.Errorf("NewInt(3).Str() = %q, want \"\"", s)
	}
}

// Interning changes no answer: Compare and TotalCompare order by content
// (IDs follow interning order, which the second-interned "aaa…" reverses
// here), KeyEqual is string equality and its parts hash alike, and the key
// and display texts are today's bytes.
func TestStringDatumAnswersUnchanged(t *testing.T) {
	zzz, aaa := NewString("zzz-intern-order"), NewString("aaa-intern-order")
	if c, ok := Compare(aaa, zzz); !ok || c != -1 || TotalCompare(zzz, aaa) != 1 {
		t.Errorf("Compare(aaa, zzz) = %d, %v; TotalCompare(zzz, aaa) = %d", c, ok, TotalCompare(zzz, aaa))
	}
	for _, a := range internCases {
		da := NewString(a)
		for _, b := range internCases {
			db := NewString(b)
			if c, ok := Compare(da, db); !ok || c != strings.Compare(a, b) {
				t.Errorf("Compare(%q, %q) = %d, %v", a, b, c, ok)
			}
			if c := TotalCompare(da, db); c != strings.Compare(a, b) {
				t.Errorf("TotalCompare(%q, %q) = %d", a, b, c)
			}
			if eq := KeyEqual(&da, &db); eq != (a == b) || eq && KeyHash(&da) != KeyHash(&db) {
				t.Errorf("KeyEqual(%q, %q) = %v, hashes %x and %x", a, b, eq, KeyHash(&da), KeyHash(&db))
			}
		}
	}
	long := strings.Repeat("k", 1024)
	for _, c := range []struct{ s, key, text string }{
		{"", "s0:", "''"},
		{"a", "s1:a", "'a'"},
		{"b", "s1:b", "'b'"},
		{"O'Brien", "s7:O'Brien", "'O''Brien'"},
		{"x|y", "s3:x|y", "'x|y'"},
		{"a:b;c", "s5:a:b;c", "'a:b;c'"},
		{"é", "s2:é", "'é'"},
		{long, "s1024:" + long, "'" + long + "'"},
	} {
		d := NewString(c.s)
		if got := string(d.AppendKey(nil)); got != c.key {
			t.Errorf("AppendKey(%q) = %q, want %q", c.s, got, c.key)
		}
		if got := d.String(); got != c.text {
			t.Errorf("String(%q) = %q, want %q", c.s, got, c.text)
		}
	}
}

// Writers intern overlapping strings while readers read back what they
// produced: each datum gives its own string back, every interning of a string
// gets one ID and no two strings share one.
func TestInternConcurrent(t *testing.T) {
	const writers, readers, perWriter, distinct = 8, 4, 400, 1000
	type result struct {
		s string
		d Datum
	}
	ch := make(chan result)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range perWriter {
				s := fmt.Sprintf("intern-race-%d", (w*perWriter/2+j)%distinct)
				ch <- result{s, NewString(s)}
			}
		}()
	}
	go func() { wg.Wait(); close(ch) }()
	seen := make([]map[string]Datum, readers)
	var rg sync.WaitGroup
	for r := range readers {
		seen[r] = map[string]Datum{}
		rg.Add(1)
		go func() {
			defer rg.Done()
			for p := range ch {
				if got := p.d.Str(); got != p.s {
					t.Errorf("datum of %q reads back %q", p.s, got)
				}
				if d, ok := seen[r][p.s]; ok && d != p.d {
					t.Errorf("%q interned as %#v and %#v", p.s, d, p.d)
				}
				seen[r][p.s] = p.d
			}
		}()
	}
	rg.Wait()
	ids, datums := map[int64]string{}, map[string]Datum{}
	for _, m := range seen {
		for s, d := range m {
			if prev, ok := datums[s]; ok && prev != d {
				t.Errorf("%q interned as %#v and %#v", s, prev, d)
			}
			if prev, ok := ids[d.I]; ok && prev != s {
				t.Errorf("%q and %q share ID %d", prev, s, d.I)
			}
			datums[s], ids[d.I] = d, s
		}
	}
}

// TestInternCapFailsLoudly: a full intern table still interns the strings it
// holds, and refuses a new one with a panic that says why.
func TestInternCapFailsLoudly(t *testing.T) {
	held := NewString("held-at-the-intern-cap")
	interned.mu.Lock()
	saved := internCap
	internCap = len(interned.ids)
	interned.mu.Unlock()
	defer func() {
		interned.mu.Lock()
		internCap = saved
		interned.mu.Unlock()
	}()
	if NewString("held-at-the-intern-cap") != held {
		t.Fatal("a string the full table holds interned differently")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "intern table is full") {
			t.Errorf("a new string past the cap: panic %q, want one saying the intern table is full", msg)
		}
	}()
	NewString("past-the-intern-cap")
}
