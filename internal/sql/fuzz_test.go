package sql

import (
	"reflect"
	"slices"
	"testing"
)

// FuzzParseRoundTrip checks the printer/parser fixpoint: any input the
// parser accepts must format to SQL the parser accepts again, the re-parsed
// statement must format to the identical text, and its literals must keep
// their kinds (a FLOAT 1 printed as "1" re-parses as INT). Parser panics on
// arbitrary input are caught by the fuzz driver itself.
func FuzzParseRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM t",
		"SELECT DISTINCT a, b AS x FROM t AS u WHERE (a > 1) AND b <= 2.5",
		"SELECT a FROM t WHERE a IS NOT NULL ORDER BY a DESC LIMIT 3",
		"SELECT n_name FROM nation JOIN supplier ON n_nationkey = s_nationkey",
		"SELECT a FROM t LEFT OUTER JOIN u ON t.a = u.b WHERE u.b IS NULL",
		"SELECT c1, COUNT(*) FROM (SELECT a AS c1 FROM t) AS d GROUP BY c1 HAVING COUNT(*) > 1",
		"SELECT a FROM t WHERE EXISTS (SELECT b FROM u WHERE u.b = t.a)",
		"SELECT a FROM t WHERE NOT EXISTS (SELECT b FROM u) UNION ALL SELECT c FROM v",
		"SELECT a FROM t WHERE a IN (1, 2, 3) OR a BETWEEN 10 AND 20",
		"SELECT a FROM t WHERE NOT (a = 1 OR a = 'it''s')",
		"SELECT -1 + 2 * 3 - a FROM t WHERE x <> 1e6",
		"SELECT SUM(a + b) AS s FROM t GROUP BY c, d ORDER BY s",
		"SELECT 1. FROM t WHERE a < 2.0E3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		s1, err := Parse(input)
		if err != nil {
			return
		}
		p1 := FormatStmt(s1)
		s2, err := Parse(p1)
		if err != nil {
			t.Fatalf("formatted SQL does not re-parse: %v\ninput: %q\nformatted: %q", err, input, p1)
		}
		p2 := FormatStmt(s2)
		if p1 != p2 {
			t.Fatalf("format is not a fixpoint:\ninput:  %q\nfirst:  %q\nsecond: %q", input, p1, p2)
		}
		if k1, k2 := literalKinds(reflect.ValueOf(s1), nil), literalKinds(reflect.ValueOf(s2), nil); !slices.Equal(k1, k2) {
			t.Fatalf("literal kinds changed:\ninput:     %q\nformatted: %q\nbefore: %v\nafter:  %v", input, p1, k1, k2)
		}
	})
}

// literalKinds appends the type names of the literals under v to out, in
// tree order.
func literalKinds(v reflect.Value, out []string) []string {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			return literalKinds(v.Elem(), out)
		}
	case reflect.Pointer:
		if v.IsNil() {
			return out
		}
		switch v.Interface().(type) {
		case *IntLit, *FloatLit, *StrLit, *BoolLit, *NullLit:
			return append(out, v.Type().Elem().Name())
		}
		return literalKinds(v.Elem(), out)
	case reflect.Struct:
		for i := range v.NumField() {
			out = literalKinds(v.Field(i), out)
		}
	case reflect.Slice:
		for i := range v.Len() {
			out = literalKinds(v.Index(i), out)
		}
	}
	return out
}
