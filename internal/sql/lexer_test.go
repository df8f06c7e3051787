package sql

import "testing"

func lexOK(t *testing.T, in string) []token {
	t.Helper()
	toks, err := lex(nil, in)
	if err != nil {
		t.Fatalf("lex(%q): %v", in, err)
	}
	return toks
}

func TestLexKeywordsAndIdents(t *testing.T) {
	toks := lexOK(t, "SELECT foo FROM Bar")
	if toks[0].kind != tokKeyword || toks[0].text != "SELECT" {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if toks[1].kind != tokIdent || toks[1].text != "foo" {
		t.Errorf("tok1 = %+v", toks[1])
	}
	if toks[3].kind != tokIdent || toks[3].text != "bar" {
		t.Errorf("identifiers must lowercase: %+v", toks[3])
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexNumbers(t *testing.T) {
	toks := lexOK(t, "1 2.5 3e4 5.0E-2 007")
	kinds := []tokenKind{tokInt, tokFloat, tokFloat, tokFloat, tokInt}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d (%q): kind %d, want %d", i, toks[i].text, toks[i].kind, k)
		}
	}
}

func TestLexStrings(t *testing.T) {
	toks := lexOK(t, "'hello' 'it''s' ''")
	want := []string{"hello", "it's", ""}
	for i, w := range want {
		if toks[i].kind != tokString || toks[i].text != w {
			t.Errorf("string %d = %q, want %q", i, toks[i].text, w)
		}
	}
	if _, err := lex(nil, "'unterminated"); err == nil {
		t.Error("unterminated string must fail")
	}
}

func TestLexOperators(t *testing.T) {
	toks := lexOK(t, "= <> < <= > >= != + - * ( ) , .")
	want := []string{"=", "<>", "<", "<=", ">", ">=", "<>", "+", "-", "*", "(", ")", ",", "."}
	for i, w := range want {
		if toks[i].kind != tokPunct || toks[i].text != w {
			t.Errorf("punct %d = %q, want %q", i, toks[i].text, w)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, in := range []string{"a ; b", "a ! b", "a @ b", "#"} {
		if _, err := lex(nil, in); err == nil {
			t.Errorf("lex(%q) should fail", in)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks := lexOK(t, "ab  cd")
	if toks[0].pos != 0 || toks[1].pos != 4 {
		t.Errorf("positions: %d %d", toks[0].pos, toks[1].pos)
	}
}
