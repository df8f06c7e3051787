package rules

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qtrtest/internal/logical"
)

// patternEqual is deep structural equality — stricter than comparing
// String() renderings, which could in principle collide.
func patternEqual(a, b *Pattern) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Op != b.Op || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !patternEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// TestExportImportProperty: export→import over the full builtin registry
// (extensions included) is the identity on every rule, structurally, and a
// second export of each round-tripped pattern is byte-identical — the XML
// API (§3.1) loses nothing an external query generator needs.
func TestExportImportProperty(t *testing.T) {
	reg := RegistryWithExtensions()
	data, err := reg.ExportXML()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseExportXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(reg.All()) {
		t.Fatalf("parsed %d rules, want %d", len(parsed), len(reg.All()))
	}
	for i, er := range parsed {
		orig := reg.All()[i]
		if er.ID != orig.ID() || er.Name != orig.Name() || er.Kind != orig.Kind() {
			t.Errorf("rule #%d: metadata changed in round trip", orig.ID())
		}
		if !patternEqual(er.Pattern, orig.Pattern()) {
			t.Errorf("rule #%d: pattern changed in round trip: %s vs %s",
				orig.ID(), er.Pattern, orig.Pattern())
		}
		if err := ValidatePattern(er.Pattern); err != nil {
			t.Errorf("rule #%d: round-tripped pattern invalid: %v", orig.ID(), err)
		}
		first, err := PatternXML(orig.Pattern())
		if err != nil {
			t.Fatal(err)
		}
		second, err := PatternXML(er.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("rule #%d: re-export differs from original export", orig.ID())
		}
	}
}

// randomPattern builds a random well-formed pattern: concrete root, exact
// arity everywhere, generics only as leaves.
func randomPattern(rng *rand.Rand, depth int) *Pattern {
	concrete := []logical.Op{
		logical.OpGet, logical.OpSelect, logical.OpProject, logical.OpJoin,
		logical.OpLeftJoin, logical.OpSemiJoin, logical.OpAntiJoin,
		logical.OpGroupBy, logical.OpUnionAll, logical.OpLimit, logical.OpSort,
	}
	op := concrete[rng.Intn(len(concrete))]
	p := &Pattern{Op: op}
	for i := 0; i < op.Arity(); i++ {
		if depth <= 0 || rng.Intn(2) == 0 {
			p.Children = append(p.Children, Any())
		} else {
			p.Children = append(p.Children, randomPattern(rng, depth-1))
		}
	}
	return p
}

// TestPatternXMLRoundTripRandom: the single-pattern wire form is lossless
// over randomly generated well-formed patterns.
func TestPatternXMLRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		p := randomPattern(rng, 4)
		if err := ValidatePattern(p); err != nil {
			t.Fatalf("generator emitted invalid pattern %s: %v", p, err)
		}
		data, err := PatternXML(p)
		if err != nil {
			t.Fatalf("export %s: %v", p, err)
		}
		back, err := ParsePatternXML(data)
		if err != nil {
			t.Fatalf("import %s: %v", p, err)
		}
		if !patternEqual(p, back) {
			t.Fatalf("round trip changed %s into %s", p, back)
		}
	}
}

// TestParseExportXMLRejectsUnknownKind: a kind other than exploration or
// implementation — misspelled, or missing — fails the parse with an error
// naming the rule, rather than reading as an exploration rule.
func TestParseExportXMLRejectsUnknownKind(t *testing.T) {
	reg := DefaultRegistry()
	data, err := reg.ExportXML()
	if err != nil {
		t.Fatal(err)
	}
	var first Rule
	for _, r := range reg.All() {
		if r.Kind() == KindImplementation {
			first = r
			break
		}
	}
	for _, kind := range []string{`kind="implmentation"`, `kind=""`} {
		bad := bytes.Replace(data, []byte(`kind="implementation"`), []byte(kind), 1)
		_, err := ParseExportXML(bad)
		if want := fmt.Sprintf("rule %d has kind", first.ID()); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s on rule %d: err = %v, want one containing %q", kind, first.ID(), err, want)
		}
	}
}
