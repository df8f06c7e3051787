package sql

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokPunct
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; punct verbatim
	pos  int
}

// keywords maps each keyword to itself, so that a word looked up by its
// upper-cased bytes yields the keyword's own string without allocating.
var keywords = map[string]string{}

func init() {
	for _, kw := range strings.Fields(`SELECT FROM WHERE GROUP BY ORDER LIMIT AS
		JOIN LEFT OUTER INNER ON AND OR NOT IS NULL TRUE FALSE EXISTS UNION ALL
		ASC DESC COUNT SUM MIN MAX AVG HAVING DISTINCT IN BETWEEN`) {
		keywords[kw] = kw
	}
}

// keyword returns the keyword word spells in any letter case. Clearing bit
// 5 upper-cases a letter, turns a digit into a control byte and keeps '_':
// no keyword contains either.
func keyword(word string) (string, bool) {
	var up [8]byte // the longest keyword's length
	if len(word) > len(up) {
		return "", false
	}
	for i := range len(word) {
		up[i] = word[i] &^ 0x20
	}
	kw, ok := keywords[string(up[:len(word)])]
	return kw, ok
}

// lex tokenizes the input into toks[:0], returning a token slice ending in
// tokEOF.
func lex(toks []token, input string) ([]token, error) {
	if toks == nil {
		// Generated SQL runs at about one token per four bytes; room for one
		// per three sizes a new buffer once.
		toks = make([]token, 0, len(input)/3+1)
	}
	toks = toks[:0]
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j, quoted := i+1, false
			for ; ; j++ {
				if j >= n {
					return nil, fmt.Errorf("sql: unterminated string literal at offset %d", i)
				}
				if input[j] == '\'' {
					if j+1 < n && input[j+1] == '\'' {
						quoted = true
						j++
						continue
					}
					break
				}
			}
			text := input[i+1 : j]
			if quoted {
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, token{kind: tokString, text: text, pos: i})
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			isFloat := false
			for j < n && (input[j] >= '0' && input[j] <= '9') {
				j++
			}
			if j < n && input[j] == '.' {
				isFloat = true
				j++
				for j < n && (input[j] >= '0' && input[j] <= '9') {
					j++
				}
			}
			if j < n && (input[j] == 'e' || input[j] == 'E') {
				isFloat = true
				j++
				if j < n && (input[j] == '+' || input[j] == '-') {
					j++
				}
				for j < n && (input[j] >= '0' && input[j] <= '9') {
					j++
				}
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			toks = append(toks, token{kind: kind, text: input[i:j], pos: i})
			i = j
		case isIdentStart(rune(c)):
			j := i
			for j < n && isIdentPart(rune(input[j])) {
				j++
			}
			word := input[i:j]
			if kw, ok := keyword(word); ok {
				toks = append(toks, token{kind: tokKeyword, text: kw, pos: i})
			} else {
				toks = append(toks, token{kind: tokIdent, text: strings.ToLower(word), pos: i})
			}
			i = j
		default:
			text := input[i:min(i+2, n)]
			switch text {
			case "<=", "<>", ">=":
			case "!=":
				text = "<>"
			default:
				text = input[i : i+1]
				if !strings.Contains("<>=(),.+-*", text) {
					return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
				}
			}
			toks = append(toks, token{kind: tokPunct, text: text, pos: i})
			i += len(text)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

// Identifiers are ASCII-only: the lexer scans bytes, and treating a byte
// >= 0x80 as a unicode letter would corrupt non-UTF-8 input when the
// identifier is later case-folded.
func isIdentStart(r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || (r >= '0' && r <= '9')
}
