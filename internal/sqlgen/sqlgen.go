// Package sqlgen renders logical query trees to SQL text — the paper's
// "Generate SQL" module (§2.3, following [9]). Every operator becomes a
// derived table and every column is exposed under the canonical name "c<ID>",
// which makes the emitted SQL round-trippable through the parser and binder.
package sqlgen

import (
	"fmt"
	"strconv"
	"strings"

	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// Generate renders the tree to a SQL statement. The metadata supplies base
// table/column names for Get operators.
func (g *Generator) Generate(tree *logical.Expr) (string, error) {
	return g.render(tree)
}

// Generator renders trees against one query's metadata.
type Generator struct {
	md    *logical.Metadata
	alias int
}

// New returns a Generator for the given metadata.
func New(md *logical.Metadata) *Generator {
	return &Generator{md: md}
}

// Generate is a convenience wrapper rendering tree against md.
func Generate(tree *logical.Expr, md *logical.Metadata) (string, error) {
	return New(md).Generate(tree)
}

func (g *Generator) nextAlias() string {
	g.alias++
	return fmt.Sprintf("t%d", g.alias)
}

func colName(id scalar.ColumnID) string { return "c" + strconv.Itoa(int(id)) }

func (g *Generator) scalarSQL(e scalar.Expr) string {
	return e.SQL(colName)
}

func (g *Generator) render(e *logical.Expr) (string, error) {
	switch e.Op {
	case logical.OpGet:
		t, err := g.md.Catalog().Table(e.Table)
		if err != nil {
			return "", err
		}
		if len(t.Columns) != len(e.Cols) {
			return "", fmt.Errorf("sqlgen: Get(%s) has %d columns, table has %d", e.Table, len(e.Cols), len(t.Columns))
		}
		parts := make([]string, len(e.Cols))
		for i, id := range e.Cols {
			parts[i] = fmt.Sprintf("%s AS %s", t.Columns[i].Name, colName(id))
		}
		return fmt.Sprintf("SELECT %s FROM %s", strings.Join(parts, ", "), e.Table), nil

	case logical.OpSelect:
		child, err := g.render(e.Children[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("SELECT * FROM (%s) AS %s WHERE %s",
			child, g.nextAlias(), g.scalarSQL(e.Filter)), nil

	case logical.OpProject:
		child, err := g.render(e.Children[0])
		if err != nil {
			return "", err
		}
		parts := make([]string, len(e.Projs))
		for i, it := range e.Projs {
			parts[i] = fmt.Sprintf("%s AS %s", g.scalarSQL(it.E), colName(it.Out))
		}
		return fmt.Sprintf("SELECT %s FROM (%s) AS %s",
			strings.Join(parts, ", "), child, g.nextAlias()), nil

	case logical.OpJoin, logical.OpLeftJoin:
		left, err := g.render(e.Children[0])
		if err != nil {
			return "", err
		}
		right, err := g.render(e.Children[1])
		if err != nil {
			return "", err
		}
		kw := "JOIN"
		if e.Op == logical.OpLeftJoin {
			kw = "LEFT JOIN"
		}
		return fmt.Sprintf("SELECT * FROM (%s) AS %s %s (%s) AS %s ON %s",
			left, g.nextAlias(), kw, right, g.nextAlias(), g.scalarSQL(e.On)), nil

	case logical.OpSemiJoin, logical.OpAntiJoin:
		left, err := g.render(e.Children[0])
		if err != nil {
			return "", err
		}
		right, err := g.render(e.Children[1])
		if err != nil {
			return "", err
		}
		kw := "EXISTS"
		if e.Op == logical.OpAntiJoin {
			kw = "NOT EXISTS"
		}
		return fmt.Sprintf("SELECT * FROM (%s) AS %s WHERE %s (SELECT 1 AS one FROM (%s) AS %s WHERE %s)",
			left, g.nextAlias(), kw, right, g.nextAlias(), g.scalarSQL(e.On)), nil

	case logical.OpGroupBy:
		child, err := g.render(e.Children[0])
		if err != nil {
			return "", err
		}
		var parts []string
		for _, c := range e.GroupCols {
			parts = append(parts, colName(c))
		}
		for _, a := range e.Aggs {
			parts = append(parts, fmt.Sprintf("%s AS %s", a.SQL(colName), colName(a.Out)))
		}
		if len(parts) == 0 {
			return "", fmt.Errorf("sqlgen: GroupBy with no grouping columns and no aggregates")
		}
		out := fmt.Sprintf("SELECT %s FROM (%s) AS %s", strings.Join(parts, ", "), child, g.nextAlias())
		if len(e.GroupCols) > 0 {
			var gb []string
			for _, c := range e.GroupCols {
				gb = append(gb, colName(c))
			}
			out += " GROUP BY " + strings.Join(gb, ", ")
		}
		return out, nil

	case logical.OpUnionAll:
		sides := make([]string, 2)
		for i := 0; i < 2; i++ {
			child, err := g.render(e.Children[i])
			if err != nil {
				return "", err
			}
			parts := make([]string, len(e.OutCols))
			for j, out := range e.OutCols {
				parts[j] = fmt.Sprintf("%s AS %s", colName(e.InputCols[i][j]), colName(out))
			}
			sides[i] = fmt.Sprintf("SELECT %s FROM (%s) AS %s",
				strings.Join(parts, ", "), child, g.nextAlias())
		}
		return fmt.Sprintf("(%s) UNION ALL (%s)", sides[0], sides[1]), nil

	case logical.OpSort:
		child, err := g.render(e.Children[0])
		if err != nil {
			return "", err
		}
		var keys []string
		for _, k := range e.Keys {
			s := colName(k.Col)
			if k.Desc {
				s += " DESC"
			}
			keys = append(keys, s)
		}
		return fmt.Sprintf("SELECT * FROM (%s) AS %s ORDER BY %s",
			child, g.nextAlias(), strings.Join(keys, ", ")), nil

	case logical.OpLimit:
		child, err := g.render(e.Children[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("SELECT * FROM (%s) AS %s LIMIT %d", child, g.nextAlias(), e.N), nil
	}
	return "", fmt.Errorf("sqlgen: unsupported operator %s", e.Op)
}
