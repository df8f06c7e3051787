// Package sql implements a lexer, parser and AST for the SQL subset the
// framework generates and accepts: SELECT with joins (inner and LEFT OUTER),
// derived tables, WHERE with EXISTS/NOT EXISTS subqueries, GROUP BY with
// aggregates, UNION ALL, ORDER BY and LIMIT.
package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Stmt is a query statement: *Select or *SetOp.
type Stmt interface{ stmt() }

// Select is a single SELECT block.
type Select struct {
	Distinct bool
	Star     bool
	Items    []SelectItem
	From     FromItem
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64
}

func (*Select) stmt() {}

// SetOp combines two statements; only UNION ALL is supported.
type SetOp struct {
	All         bool
	Left, Right Stmt
}

func (*SetOp) stmt() {}

// SelectItem is one projection, optionally aliased.
type SelectItem struct {
	E     Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	E    Expr
	Desc bool
}

// FromItem is a table source: *TableRef, *Derived or *JoinRef.
type FromItem interface{ fromItem() }

// TableRef names a base table.
type TableRef struct {
	Name  string
	Alias string
}

func (*TableRef) fromItem() {}

// Derived is a parenthesized subquery with an alias.
type Derived struct {
	Q     Stmt
	Alias string
}

func (*Derived) fromItem() {}

// JoinKind distinguishes the supported join syntaxes.
type JoinKind int

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeftOuter
)

// JoinRef is an explicit join between two sources.
type JoinRef struct {
	Kind JoinKind
	L, R FromItem
	On   Expr
}

func (*JoinRef) fromItem() {}

// Expr is a scalar AST expression.
type Expr interface{ expr() }

// Ident is a possibly qualified column reference.
type Ident struct {
	Qual string // optional table qualifier
	Name string
}

// IntLit is an integer literal.
type IntLit struct{ V int64 }

// FloatLit is a floating-point literal.
type FloatLit struct{ V float64 }

// StrLit is a string literal.
type StrLit struct{ V string }

// BoolLit is TRUE or FALSE.
type BoolLit struct{ V bool }

// NullLit is NULL.
type NullLit struct{}

// BinExpr is a binary operation; Op is one of = <> < <= > >= + - * AND OR.
type BinExpr struct {
	Op   string
	L, R Expr
}

// NotExpr negates its operand.
type NotExpr struct{ E Expr }

// IsNullExpr is "E IS [NOT] NULL".
type IsNullExpr struct {
	E   Expr
	Neg bool
}

// ExistsExpr is "[NOT] EXISTS (subquery)".
type ExistsExpr struct {
	Neg bool
	Q   Stmt
}

// InExpr is "E [NOT] IN (e1, e2, ...)".
type InExpr struct {
	E    Expr
	Neg  bool
	List []Expr
}

// BetweenExpr is "E BETWEEN Lo AND Hi".
type BetweenExpr struct {
	E      Expr
	Lo, Hi Expr
}

// CallExpr is an aggregate function call.
type CallExpr struct {
	Name string // upper-cased
	Star bool   // COUNT(*)
	Arg  Expr
}

func (*Ident) expr()       {}
func (*IntLit) expr()      {}
func (*FloatLit) expr()    {}
func (*StrLit) expr()      {}
func (*BoolLit) expr()     {}
func (*NullLit) expr()     {}
func (*BinExpr) expr()     {}
func (*NotExpr) expr()     {}
func (*IsNullExpr) expr()  {}
func (*ExistsExpr) expr()  {}
func (*InExpr) expr()      {}
func (*BetweenExpr) expr() {}
func (*CallExpr) expr()    {}

// FormatExpr renders an expression AST back to parseable SQL, fully
// parenthesized (subqueries print via FormatStmt).
func FormatExpr(e Expr) string {
	switch t := e.(type) {
	case *Ident:
		if t.Qual != "" {
			return t.Qual + "." + t.Name
		}
		return t.Name
	case *IntLit:
		return fmt.Sprintf("%d", t.V)
	case *FloatLit:
		// A point or an exponent keeps the kind: "1" would re-parse as INT.
		s := strconv.FormatFloat(t.V, 'g', -1, 64)
		if !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return s
	case *StrLit:
		return "'" + strings.ReplaceAll(t.V, "'", "''") + "'"
	case *BoolLit:
		if t.V {
			return "TRUE"
		}
		return "FALSE"
	case *NullLit:
		return "NULL"
	case *BinExpr:
		return "(" + FormatExpr(t.L) + " " + t.Op + " " + FormatExpr(t.R) + ")"
	case *NotExpr:
		return "(NOT " + FormatExpr(t.E) + ")"
	case *IsNullExpr:
		if t.Neg {
			return "(" + FormatExpr(t.E) + " IS NOT NULL)"
		}
		return "(" + FormatExpr(t.E) + " IS NULL)"
	case *ExistsExpr:
		// Parenthesized so a NOT EXISTS inside a NotExpr cannot fuse with
		// the outer NOT when re-parsed.
		if t.Neg {
			return "(NOT EXISTS (" + FormatStmt(t.Q) + "))"
		}
		return "(EXISTS (" + FormatStmt(t.Q) + "))"
	case *InExpr:
		parts := make([]string, len(t.List))
		for i, e := range t.List {
			parts[i] = FormatExpr(e)
		}
		op := " IN ("
		if t.Neg {
			op = " NOT IN ("
		}
		return "(" + FormatExpr(t.E) + op + strings.Join(parts, ", ") + "))"
	case *BetweenExpr:
		return "(" + FormatExpr(t.E) + " BETWEEN " + FormatExpr(t.Lo) + " AND " + FormatExpr(t.Hi) + ")"
	case *CallExpr:
		if t.Star {
			return t.Name + "(*)"
		}
		return t.Name + "(" + FormatExpr(t.Arg) + ")"
	}
	return "?"
}
