// Package sqlgen renders logical query trees to SQL text — the paper's
// "Generate SQL" module (§2.3, following [9]). Every operator becomes a
// derived table and every column is exposed under the canonical name "c<ID>",
// which makes the emitted SQL round-trippable through the parser and binder.
package sqlgen

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"

	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// bufPool holds the buffers statements are written into: the string
// Generate returns is an exact-size copy, and the buffer is written again.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Generate renders the tree to a SQL statement. The metadata supplies base
// table/column names for Get operators.
func Generate(tree *logical.Expr, md *logical.Metadata) (string, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := (&renderer{md: md}).render(buf, tree); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// renderer writes one statement into one buffer.
type renderer struct {
	md    *logical.Metadata
	alias int // derived-table aliases taken
}

func writeInt(buf *bytes.Buffer, v int64) {
	var digits [20]byte
	buf.Write(strconv.AppendInt(digits[:0], v, 10))
}

func writeCol(buf *bytes.Buffer, id scalar.ColumnID) {
	buf.WriteByte('c')
	writeInt(buf, int64(id))
}

// writeAs writes ", " unless i is 0, then "e AS c<out>" (e nil: column in).
func writeAs(buf *bytes.Buffer, i int, e scalar.Expr, in, out scalar.ColumnID) {
	if i > 0 {
		buf.WriteString(", ")
	}
	if e != nil {
		scalar.WriteSQL(buf, e, writeCol)
	} else {
		writeCol(buf, in)
	}
	buf.WriteString(" AS ")
	writeCol(buf, out)
}

// aliases counts the derived-table aliases rendering e takes.
func aliases(e *logical.Expr) int {
	n := 1
	switch e.Op {
	case logical.OpGet:
		return 0
	case logical.OpJoin, logical.OpLeftJoin, logical.OpSemiJoin, logical.OpAntiJoin, logical.OpUnionAll:
		n = 2
	}
	for _, c := range e.Children {
		n += aliases(c)
	}
	return n
}

// derived writes "(child) AS tN". Aliases are numbered as if every operator
// took its own after both of its subtrees had taken theirs, a join's left
// side before its right: N is the next alias after child's own plus skip,
// which for a join's left side is the aliases its right subtree takes. The
// caller counts the aliases it wrote.
func (r *renderer) derived(buf *bytes.Buffer, child *logical.Expr, skip int) error {
	buf.WriteByte('(')
	if err := r.render(buf, child); err != nil {
		return err
	}
	buf.WriteString(") AS t")
	writeInt(buf, int64(r.alias+skip+1))
	return nil
}

// joinKeywords joins a join's two derived tables; a semi or anti join's
// right side is an EXISTS subquery.
var joinKeywords = map[logical.Op]string{
	logical.OpJoin:     " JOIN ",
	logical.OpLeftJoin: " LEFT JOIN ",
	logical.OpSemiJoin: " WHERE EXISTS (SELECT 1 AS one FROM ",
	logical.OpAntiJoin: " WHERE NOT EXISTS (SELECT 1 AS one FROM ",
}

func (r *renderer) render(buf *bytes.Buffer, e *logical.Expr) error {
	switch e.Op {
	case logical.OpGet:
		t, err := r.md.Catalog().Table(e.Table)
		if err != nil {
			return err
		}
		if len(t.Columns) != len(e.Cols) {
			return fmt.Errorf("sqlgen: Get(%s) has %d columns, table has %d", e.Table, len(e.Cols), len(t.Columns))
		}
		buf.WriteString("SELECT ")
		for i, id := range e.Cols {
			if i > 0 {
				buf.WriteString(", ")
			}
			buf.WriteString(t.Columns[i].Name)
			buf.WriteString(" AS ")
			writeCol(buf, id)
		}
		buf.WriteString(" FROM ")
		buf.WriteString(e.Table)
		return nil
	case logical.OpUnionAll:
		for i, open := range [2]string{"(SELECT ", ") UNION ALL (SELECT "} {
			buf.WriteString(open)
			for j, out := range e.OutCols {
				writeAs(buf, j, nil, e.InputCols[i][j], out)
			}
			buf.WriteString(" FROM ")
			if err := r.derived(buf, e.Children[i], 0); err != nil {
				return err
			}
			r.alias++
		}
		buf.WriteByte(')')
		return nil
	case logical.OpProject:
		buf.WriteString("SELECT ")
		for i, it := range e.Projs {
			writeAs(buf, i, it.E, 0, it.Out)
		}
	case logical.OpGroupBy:
		if len(e.GroupCols)+len(e.Aggs) == 0 {
			if err := r.render(buf, e.Children[0]); err != nil {
				return err
			}
			return fmt.Errorf("sqlgen: GroupBy with no grouping columns and no aggregates")
		}
		buf.WriteString("SELECT ")
		writeCols(buf, "", e.GroupCols)
		for i, a := range e.Aggs {
			if i > 0 || len(e.GroupCols) > 0 {
				buf.WriteString(", ")
			}
			a.WriteSQL(buf, writeCol)
			buf.WriteString(" AS ")
			writeCol(buf, a.Out)
		}
	case logical.OpSelect, logical.OpSort, logical.OpLimit,
		logical.OpJoin, logical.OpLeftJoin, logical.OpSemiJoin, logical.OpAntiJoin:
		buf.WriteString("SELECT *")
	default:
		return fmt.Errorf("sqlgen: unsupported operator %s", e.Op)
	}
	buf.WriteString(" FROM ")
	if kw, ok := joinKeywords[e.Op]; ok {
		if err := r.derived(buf, e.Children[0], aliases(e.Children[1])); err != nil {
			return err
		}
		buf.WriteString(kw)
		if err := r.derived(buf, e.Children[1], 1); err != nil {
			return err
		}
		r.alias += 2
		if e.Op == logical.OpJoin || e.Op == logical.OpLeftJoin {
			buf.WriteString(" ON ")
			scalar.WriteSQL(buf, e.On, writeCol)
		} else {
			buf.WriteString(" WHERE ")
			scalar.WriteSQL(buf, e.On, writeCol)
			buf.WriteByte(')')
		}
		return nil
	}
	if err := r.derived(buf, e.Children[0], 0); err != nil {
		return err
	}
	r.alias++
	switch e.Op {
	case logical.OpSelect:
		buf.WriteString(" WHERE ")
		scalar.WriteSQL(buf, e.Filter, writeCol)
	case logical.OpGroupBy:
		writeCols(buf, " GROUP BY ", e.GroupCols)
	case logical.OpSort:
		buf.WriteString(" ORDER BY ")
		for i, k := range e.Keys {
			if i > 0 {
				buf.WriteString(", ")
			}
			writeCol(buf, k.Col)
			if k.Desc {
				buf.WriteString(" DESC")
			}
		}
	case logical.OpLimit:
		buf.WriteString(" LIMIT ")
		writeInt(buf, e.N)
	}
	return nil
}

// writeCols writes prefix and the columns, comma-separated, or nothing for
// none.
func writeCols(buf *bytes.Buffer, prefix string, cols []scalar.ColumnID) {
	for i, c := range cols {
		if i == 0 {
			buf.WriteString(prefix)
		} else {
			buf.WriteString(", ")
		}
		writeCol(buf, c)
	}
}
