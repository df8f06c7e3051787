package sql

import (
	"fmt"
	"slices"
	"strconv"
)

// Parse parses a SQL statement (SELECT, possibly combined with UNION ALL).
func Parse(input string) (Stmt, error) {
	return new(Scratch).Parse(input)
}

// Scratch is storage parses reuse: the token buffer, and the select-item and
// GROUP BY lists of the statement a parse returns. Those lists stay valid
// only until the Scratch parses again, so nothing may hold the statement
// longer. A Scratch is not safe for concurrent use.
type Scratch struct {
	toks  []token
	items list[SelectItem]
	exprs list[Expr]
}

// Parse parses input as the package's Parse does, into the scratch.
func (s *Scratch) Parse(input string) (Stmt, error) {
	s.items.reset()
	s.exprs.reset()
	toks, err := lex(s.toks, input)
	if err != nil {
		return nil, err
	}
	s.toks = toks
	p := &parser{toks: toks, sc: s}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().text)
	}
	return stmt, nil
}

// list gathers the lists being parsed on one stack, a nested list above the
// one it interrupts, and done moves a finished one into buf, where it stays
// until reset. Outgrowing buf starts a larger one and leaves the lists
// already handed out in the old.
type list[T any] struct{ stack, buf []T }

// done moves the elements pushed since base, at least one, into buf.
func (l *list[T]) done(base int) []T {
	v := l.stack[base:]
	l.stack = l.stack[:base]
	if len(l.buf)+len(v) > cap(l.buf) {
		l.buf = make([]T, 0, max(2*cap(l.buf), len(v), 64))
	}
	l.buf = append(l.buf, v...)
	return l.buf[len(l.buf)-len(v) : len(l.buf) : len(l.buf)]
}

func (l *list[T]) reset() { l.stack, l.buf = l.stack[:0], l.buf[:0] }

type parser struct {
	toks []token
	pos  int
	sc   *Scratch
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) isPunct(s string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errorf("expected %q, found %q", s, p.peek().text)
	}
	return nil
}

// parseStmt parses select [UNION ALL select]*, left-associative.
func (p *parser) parseStmt() (Stmt, error) {
	left, err := p.parseSelectOrParen()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("UNION") {
		if err := p.expectKeyword("ALL"); err != nil {
			return nil, err
		}
		right, err := p.parseSelectOrParen()
		if err != nil {
			return nil, err
		}
		left = &SetOp{All: true, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseSelectOrParen() (Stmt, error) {
	if p.acceptPunct("(") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return s, nil
	}
	return p.parseSelect()
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	}
	if p.acceptPunct("*") {
		sel.Star = true
	} else {
		items := &p.sc.items
		base := len(items.stack)
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{E: e}
			if p.acceptKeyword("AS") {
				t := p.next()
				if t.kind != tokIdent {
					return nil, p.errorf("expected alias after AS, found %q", t.text)
				}
				item.Alias = t.text
			} else if p.peek().kind == tokIdent {
				item.Alias = p.next().text
			}
			items.stack = append(items.stack, item)
			if !p.acceptPunct(",") {
				break
			}
		}
		sel.Items = items.done(base)
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseFrom()
	if err != nil {
		return nil, err
	}
	sel.From = from
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		exprs := &p.sc.exprs
		base := len(exprs.stack)
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			exprs.stack = append(exprs.stack, e)
			if !p.acceptPunct(",") {
				break
			}
		}
		sel.GroupBy = exprs.done(base)
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{E: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.kind != tokInt {
			return nil, p.errorf("expected integer after LIMIT, found %q", t.text)
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid LIMIT value %q", t.text)
		}
		sel.Limit = &v
	}
	return sel, nil
}

// parseFrom parses a source followed by zero or more JOIN clauses.
func (p *parser) parseFrom() (FromItem, error) {
	left, err := p.parseFromPrimary()
	if err != nil {
		return nil, err
	}
	for {
		var kind JoinKind
		switch {
		case p.acceptKeyword("JOIN"):
			kind = JoinInner
		case p.isKeyword("INNER"):
			p.next()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinInner
		case p.isKeyword("LEFT"):
			p.next()
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinLeftOuter
		default:
			return left, nil
		}
		right, err := p.parseFromPrimary()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = &JoinRef{Kind: kind, L: left, R: right, On: on}
	}
}

func (p *parser) parseFromPrimary() (FromItem, error) {
	if p.acceptPunct("(") {
		q, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		p.acceptKeyword("AS")
		t := p.next()
		if t.kind != tokIdent {
			return nil, p.errorf("derived table requires an alias, found %q", t.text)
		}
		return &Derived{Q: q, Alias: t.text}, nil
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, p.errorf("expected table name, found %q", t.text)
	}
	ref := &TableRef{Name: t.text}
	if p.acceptKeyword("AS") {
		a := p.next()
		if a.kind != tokIdent {
			return nil, p.errorf("expected alias after AS, found %q", a.text)
		}
		ref.Alias = a.text
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// Expression grammar, loosest to tightest: OR, AND, NOT, comparison / IS
// NULL, additive, multiplicative, unary, primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error)  { return p.leftAssoc(p.parseAnd, "OR") }
func (p *parser) parseAnd() (Expr, error) { return p.leftAssoc(p.parseNot, "AND") }

// leftAssoc parses operand {op operand}, folding to the left, for the
// keyword or punctuation operators ops.
func (p *parser) leftAssoc(operand func() (Expr, error), ops ...string) (Expr, error) {
	left, err := operand()
	for err == nil {
		t := p.peek()
		if t.kind != tokKeyword && t.kind != tokPunct || !slices.Contains(ops, t.text) {
			return left, nil
		}
		p.next()
		var right Expr
		if right, err = operand(); err == nil {
			left = &BinExpr{Op: t.text, L: left, R: right}
		}
	}
	return nil, err
}

func (p *parser) parseNot() (Expr, error) {
	if p.isKeyword("NOT") && p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "EXISTS" {
		p.next()
		return p.parseExists(true)
	}
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseExists(neg bool) (Expr, error) {
	if err := p.expectKeyword("EXISTS"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	q, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &ExistsExpr{Neg: neg, Q: q}, nil
}

func (p *parser) parseComparison() (Expr, error) {
	if p.isKeyword("EXISTS") {
		return p.parseExists(false)
	}
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("IS") {
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: left, Neg: neg}, nil
	}
	if p.isKeyword("IN") || (p.isKeyword("NOT") && p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "IN") {
		neg := p.acceptKeyword("NOT")
		p.next() // IN
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		in := &InExpr{E: left, Neg: neg}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return in, nil
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: left, Lo: lo, Hi: hi}, nil
	}
	for _, op := range []string{"=", "<>", "<=", ">=", "<", ">"} {
		if p.isPunct(op) {
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinExpr{Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) { return p.leftAssoc(p.parseMultiplicative, "+", "-") }

func (p *parser) parseMultiplicative() (Expr, error) { return p.leftAssoc(p.parseUnary, "*") }

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptPunct("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		switch lit := e.(type) {
		case *IntLit:
			return &IntLit{V: -lit.V}, nil
		case *FloatLit:
			return &FloatLit{V: -lit.V}, nil
		default:
			return &BinExpr{Op: "-", L: &IntLit{V: 0}, R: e}, nil
		}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid integer %q", t.text)
		}
		return &IntLit{V: v}, nil
	case tokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf("invalid number %q", t.text)
		}
		return &FloatLit{V: v}, nil
	case tokString:
		p.next()
		return &StrLit{V: t.text}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.next()
			return &BoolLit{V: true}, nil
		case "FALSE":
			p.next()
			return &BoolLit{V: false}, nil
		case "NULL":
			p.next()
			return &NullLit{}, nil
		case "COUNT", "SUM", "MIN", "MAX", "AVG":
			p.next()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			call := &CallExpr{Name: t.text}
			if t.text == "COUNT" && p.acceptPunct("*") {
				call.Star = true
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Arg = arg
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return call, nil
		case "EXISTS":
			return p.parseExists(false)
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.text)
	case tokIdent:
		p.next()
		if p.acceptPunct(".") {
			n := p.next()
			if n.kind != tokIdent {
				return nil, p.errorf("expected column name after %q.", t.text)
			}
			return &Ident{Qual: t.text, Name: n.text}, nil
		}
		return &Ident{Name: t.text}, nil
	case tokPunct:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}
