// Package bind resolves a parsed SQL statement against a catalog into a
// logical query tree: names become ColumnIDs, EXISTS subqueries become semi
// and anti joins, and the result is always topped by a Project that fixes
// the output column order.
package bind

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/scalar"
	"qtrtest/internal/sql"
)

// Bound is a fully bound query.
type Bound struct {
	Tree *logical.Expr
	MD   *logical.Metadata
	// OutNames are the result column names, parallel to the root Project.
	OutNames []string
}

// scratch is what binding needs only while it runs: the parse's tokens and
// lists, and the binder's scopes, its FROM aliases and the output lists it
// builds per SELECT. A call takes one from scratchPool and puts it back when
// it returns, so nothing a Bound holds may point into it: a kept Project
// copies its items out.
type scratch struct {
	parse   sql.Scratch
	scopes  memo.Arena[scope]
	cols    memo.Arena[scopeCol]
	projs   memo.Arena[logical.ProjItem]
	aliases []string
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// PoisonReleased makes every binding overwrite the project items of the
// scratch it puts back, the only scratch a bound tree could point into, with
// garbage: tests set it, so that a tree still pointing there reads poison.
var PoisonReleased atomic.Bool

// BindSQL parses and binds a SQL query.
func BindSQL(query string, cat *catalog.Catalog) (*Bound, error) {
	return bind(nil, query, cat)
}

// Bind binds a parsed statement.
func Bind(stmt sql.Stmt, cat *catalog.Catalog) (*Bound, error) {
	return bind(stmt, "", cat)
}

// bind binds stmt, or parses query first when stmt is nil.
func bind(stmt sql.Stmt, query string, cat *catalog.Catalog) (*Bound, error) {
	sc := scratchPool.Get().(*scratch)
	defer func() {
		if PoisonReleased.Load() {
			sc.projs.Fill(logical.ProjItem{Out: -7, E: &scalar.ColRef{ID: -7}})
		}
		sc.scopes.Rewind(false)
		sc.cols.Rewind(false)
		sc.projs.Rewind(false)
		sc.aliases = sc.aliases[:0]
		scratchPool.Put(sc)
	}()
	if stmt == nil {
		var err error
		if stmt, err = sc.parse.Parse(query); err != nil {
			return nil, err
		}
	}
	b := &binder{md: logical.NewMetadata(cat), scratch: sc}
	tree, outs, err := b.bindStmt(stmt, nil)
	if err != nil {
		return nil, err
	}
	// The root must pin the output column order: during optimization a group
	// can hold expressions with different natural layouts (e.g. commuted
	// joins), and only a Project/GroupBy/UnionAll payload fixes the order.
	if tree.Op != logical.OpSort && tree.Op != logical.OpLimit {
		// Sort/Limit already sit above a pinned subtree (see bindSelect).
		tree = pinOrder(tree, outs)
	}
	names := make([]string, len(outs))
	for i, oc := range outs {
		names[i] = oc.name
	}
	return &Bound{Tree: tree, MD: b.md, OutNames: names}, nil
}

// isIdentityProjection reports whether the items pass through exactly the
// tree's output columns in order.
func isIdentityProjection(items []logical.ProjItem, tree *logical.Expr) bool {
	outs := tree.OutputCols()
	if len(items) != len(outs) {
		return false
	}
	for i, it := range items {
		ref, ok := it.E.(*scalar.ColRef)
		if !ok || ref.ID != outs[i] || it.Out != outs[i] {
			return false
		}
	}
	return true
}

// pinOrder ensures the tree's root fixes its output column order through an
// operator payload. Project, GroupBy and UnionAll do; everything else gets a
// pass-through Project on top.
func pinOrder(tree *logical.Expr, outs []scopeCol) *logical.Expr {
	switch tree.Op {
	case logical.OpProject, logical.OpGroupBy, logical.OpUnionAll:
		return tree
	}
	items := make([]logical.ProjItem, len(outs))
	for i, oc := range outs {
		items[i] = logical.ProjItem{Out: oc.id, E: &scalar.ColRef{ID: oc.id}}
	}
	return &logical.Expr{Op: logical.OpProject, Children: []*logical.Expr{tree}, Projs: items}
}

// scopeCol is one visible column during binding.
type scopeCol struct {
	qual string // table alias, possibly empty
	name string
	id   scalar.ColumnID
}

// scope is an ordered list of visible columns with an optional outer scope
// for correlated EXISTS predicates.
type scope struct {
	cols  []scopeCol
	outer *scope
}

func (s *scope) resolve(qual, name string) (scalar.ColumnID, error) {
	var found scalar.ColumnID
	matches := 0
	for _, c := range s.cols {
		if c.name == name && (qual == "" || c.qual == qual) {
			found = c.id
			matches++
		}
	}
	switch matches {
	case 1:
		return found, nil
	case 0:
		if s.outer != nil {
			return s.outer.resolve(qual, name)
		}
		if qual != "" {
			return 0, fmt.Errorf("bind: column %s.%s does not exist", qual, name)
		}
		return 0, fmt.Errorf("bind: column %s does not exist", name)
	default:
		return 0, fmt.Errorf("bind: column reference %q is ambiguous", name)
	}
}

// binder binds one statement. Its scratch's aliases stack the table aliases
// of the FROM clauses being bound, the innermost clause's last.
type binder struct {
	md *logical.Metadata
	*scratch
}

// newScope carves a scope of n columns from the scratch.
func (b *binder) newScope(n int) *scope {
	s := &b.scopes.Take(1, 8)[0]
	*s = scope{cols: b.cols.Take(n, 64)}
	return s
}

// bindStmt binds a statement, returning the tree and its ordered output
// columns. The tree's root fixes the output order (Project, GroupBy over a
// Project, Sort or Limit above one).
func (b *binder) bindStmt(stmt sql.Stmt, outer *scope) (*logical.Expr, []scopeCol, error) {
	switch t := stmt.(type) {
	case *sql.Select:
		return b.bindSelect(t, outer)
	case *sql.SetOp:
		return b.bindSetOp(t, outer)
	default:
		return nil, nil, fmt.Errorf("bind: unsupported statement type %T", stmt)
	}
}

func (b *binder) bindSetOp(s *sql.SetOp, outer *scope) (*logical.Expr, []scopeCol, error) {
	lt, lo, err := b.bindStmt(s.Left, outer)
	if err != nil {
		return nil, nil, err
	}
	rt, ro, err := b.bindStmt(s.Right, outer)
	if err != nil {
		return nil, nil, err
	}
	if len(lo) != len(ro) {
		return nil, nil, fmt.Errorf("bind: UNION ALL inputs have %d and %d columns", len(lo), len(ro))
	}
	outCols := make([]scalar.ColumnID, len(lo))
	inCols := [][]scalar.ColumnID{make([]scalar.ColumnID, len(lo)), make([]scalar.ColumnID, len(lo))}
	outs := b.cols.Take(len(lo), 64)
	for i := range lo {
		id := b.md.AddColumn(logical.ColumnMeta{Name: lo[i].name, Type: b.md.Column(lo[i].id).Type})
		outCols[i] = id
		inCols[0][i] = lo[i].id
		inCols[1][i] = ro[i].id
		outs[i] = scopeCol{name: lo[i].name, id: id}
	}
	tree := &logical.Expr{
		Op: logical.OpUnionAll, Children: []*logical.Expr{lt, rt},
		OutCols: outCols, InputCols: inCols,
	}
	return tree, outs, nil
}

func (b *binder) bindSelect(s *sql.Select, outer *scope) (*logical.Expr, []scopeCol, error) {
	tree, sc, err := b.bindFromClause(s.From)
	if err != nil {
		return nil, nil, err
	}
	sc.outer = outer

	// WHERE: plain conjuncts become a Select; EXISTS / NOT EXISTS conjuncts
	// become semi / anti joins.
	if s.Where != nil {
		tree, err = b.bindWhere(tree, sc, s.Where)
		if err != nil {
			return nil, nil, err
		}
	}

	// Aggregation.
	hasAgg := containsAggregate(s.Having)
	for _, item := range s.Items {
		if _, ok := item.E.(*sql.CallExpr); ok {
			hasAgg = true
		}
	}
	if s.Having != nil && len(s.GroupBy) == 0 && !hasAgg {
		return nil, nil, fmt.Errorf("bind: HAVING requires GROUP BY or aggregates")
	}
	var aggOuts []scalar.ColumnID // select-item index -> agg output, 0 for none
	if len(s.GroupBy) > 0 || hasAgg {
		if s.Star {
			return nil, nil, fmt.Errorf("bind: SELECT * cannot be combined with GROUP BY or aggregates")
		}
		aggOuts = make([]scalar.ColumnID, len(s.Items))
		var groupCols []scalar.ColumnID
		var groupSet scalar.ColSet
		for _, g := range s.GroupBy {
			id, err := b.bindIdent(g, sc)
			if err != nil {
				return nil, nil, err
			}
			groupCols = append(groupCols, id)
			groupSet.Add(id)
		}
		var aggs []scalar.Agg
		for i, item := range s.Items {
			call, ok := item.E.(*sql.CallExpr)
			if !ok {
				e, err := b.bindExpr(item.E, sc)
				if err != nil {
					return nil, nil, err
				}
				if !scalar.ReferencedCols(e).SubsetOf(groupSet) {
					return nil, nil, fmt.Errorf("bind: select item %d must be an aggregate or reference only GROUP BY columns", i+1)
				}
				continue
			}
			ag, err := b.bindAgg(call, sc)
			if err != nil {
				return nil, nil, err
			}
			aggs = append(aggs, ag)
			aggOuts[i] = ag.Out
		}
		var having scalar.Expr
		if s.Having != nil {
			// HAVING may reference aggregates (reusing select-list ones or
			// adding new) and grouping columns.
			var err error
			having, err = b.bindHaving(s.Having, sc, groupSet, &aggs)
			if err != nil {
				return nil, nil, err
			}
		}
		tree = &logical.Expr{
			Op: logical.OpGroupBy, Children: []*logical.Expr{tree},
			GroupCols: groupCols, Aggs: aggs,
		}
		if having != nil {
			tree = &logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{tree}, Filter: having}
		}
	}

	// Root projection fixes output order and names.
	n := len(s.Items)
	if s.Star {
		n = len(sc.cols)
	}
	items, outs := b.projs.Take(n, 64)[:0], b.cols.Take(n, 64)[:0]
	if s.Star {
		for _, c := range sc.cols {
			items = append(items, logical.ProjItem{Out: c.id, E: &scalar.ColRef{ID: c.id}})
			outs = append(outs, scopeCol{name: c.name, id: c.id})
		}
	} else {
		for i, item := range s.Items {
			var e scalar.Expr
			if aggOuts != nil && aggOuts[i] != 0 {
				e = &scalar.ColRef{ID: aggOuts[i]}
			} else {
				var err error
				e, err = b.bindExpr(item.E, sc)
				if err != nil {
					return nil, nil, err
				}
			}
			name := item.Alias
			if name == "" {
				if id, ok := item.E.(*sql.Ident); ok {
					name = id.Name
				} else {
					name = fmt.Sprintf("col%d", i+1)
				}
			}
			var out scalar.ColumnID
			if ref, ok := e.(*scalar.ColRef); ok {
				out = ref.ID
			} else {
				out = b.md.AddColumn(logical.ColumnMeta{Name: name, Type: b.typeOf(e)})
			}
			items = append(items, logical.ProjItem{Out: out, E: e})
			outs = append(outs, scopeCol{name: name, id: out})
		}
	}
	// Deduplicate projection outputs: the same column selected twice must
	// get a distinct output id to keep ids unique per operator.
	var seen scalar.ColSet
	for i := range items {
		if seen.Contains(items[i].Out) {
			fresh := b.md.AddColumn(logical.ColumnMeta{Name: outs[i].name, Type: b.md.Column(items[i].Out).Type})
			items[i] = logical.ProjItem{Out: fresh, E: items[i].E}
			outs[i].id = fresh
		}
		seen.Add(items[i].Out)
	}
	// Skip identity projections (the select list passes the operator's
	// output through unchanged, as "SELECT *" does). This matters for rule
	// testing: an interposed no-op Project would hide shapes like
	// Select(Join) from rule patterns after a SQL round trip.
	if !isIdentityProjection(items, tree) {
		projs := make([]logical.ProjItem, len(items))
		copy(projs, items)
		tree = &logical.Expr{Op: logical.OpProject, Children: []*logical.Expr{tree}, Projs: projs}
	}
	// SELECT DISTINCT deduplicates the projected output: a GroupBy over all
	// output columns with no aggregates.
	if s.Distinct {
		gc := make([]scalar.ColumnID, len(outs))
		for i, oc := range outs {
			gc[i] = oc.id
		}
		tree = &logical.Expr{Op: logical.OpGroupBy, Children: []*logical.Expr{tree}, GroupCols: gc}
	}

	// ORDER BY and LIMIT apply to the projected output; pin the column
	// order below them (see Bind) since they pass their child layout
	// through.
	if len(s.OrderBy) > 0 || s.Limit != nil {
		tree = pinOrder(tree, outs)
	}
	if len(s.OrderBy) > 0 {
		outScope := b.newScope(0)
		outScope.cols = outs
		keys := make([]logical.SortKey, 0, len(s.OrderBy))
		for _, o := range s.OrderBy {
			id, err := b.bindIdent(o.E, outScope)
			if err != nil {
				return nil, nil, err
			}
			keys = append(keys, logical.SortKey{Col: id, Desc: o.Desc})
		}
		tree = &logical.Expr{Op: logical.OpSort, Children: []*logical.Expr{tree}, Keys: keys}
	}
	if s.Limit != nil {
		tree = &logical.Expr{Op: logical.OpLimit, Children: []*logical.Expr{tree}, N: *s.Limit}
	}
	return tree, outs, nil
}

// bindFromClause binds one FROM clause, whose table aliases — a table's
// name where it has none — must differ: with two t's, t.col would be
// ambiguous or, where only one side has col, silently bind to it.
func (b *binder) bindFromClause(f sql.FromItem) (*logical.Expr, *scope, error) {
	start := len(b.aliases)
	tree, sc, err := b.bindFrom(f, start)
	b.aliases = b.aliases[:start]
	return tree, sc, err
}

// alias adds a table alias to the FROM clause whose aliases start at start.
func (b *binder) alias(name string, start int) error {
	if slices.Contains(b.aliases[start:], name) {
		return fmt.Errorf("bind: table alias %q specified more than once", name)
	}
	b.aliases = append(b.aliases, name)
	return nil
}

func (b *binder) bindFrom(f sql.FromItem, start int) (*logical.Expr, *scope, error) {
	switch t := f.(type) {
	case *sql.TableRef:
		alias := t.Alias
		if alias == "" {
			alias = t.Name
		}
		if err := b.alias(alias, start); err != nil {
			return nil, nil, err
		}
		get, err := b.md.AddTable(t.Name)
		if err != nil {
			return nil, nil, err
		}
		tbl, _ := b.md.Catalog().Table(t.Name)
		sc := b.newScope(len(tbl.Columns))
		for i, col := range tbl.Columns {
			sc.cols[i] = scopeCol{qual: alias, name: col.Name, id: get.Cols[i]}
		}
		return get, sc, nil
	case *sql.Derived:
		tree, outs, err := b.bindStmt(t.Q, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := b.alias(t.Alias, start); err != nil {
			return nil, nil, err
		}
		sc := b.newScope(len(outs))
		for i, oc := range outs {
			sc.cols[i] = scopeCol{qual: t.Alias, name: oc.name, id: oc.id}
		}
		return tree, sc, nil
	case *sql.JoinRef:
		lt, ls, err := b.bindFrom(t.L, start)
		if err != nil {
			return nil, nil, err
		}
		rt, rs, err := b.bindFrom(t.R, start)
		if err != nil {
			return nil, nil, err
		}
		sc := b.newScope(len(ls.cols) + len(rs.cols))
		copy(sc.cols[copy(sc.cols, ls.cols):], rs.cols)
		on, err := b.bindExpr(t.On, sc)
		if err != nil {
			return nil, nil, err
		}
		op := logical.OpJoin
		if t.Kind == sql.JoinLeftOuter {
			op = logical.OpLeftJoin
		}
		return &logical.Expr{Op: op, Children: []*logical.Expr{lt, rt}, On: on}, sc, nil
	default:
		return nil, nil, fmt.Errorf("bind: unsupported FROM item %T", f)
	}
}

// bindWhere splits the predicate's top-level conjuncts into plain filters
// and EXISTS / NOT EXISTS terms.
func (b *binder) bindWhere(tree *logical.Expr, sc *scope, where sql.Expr) (*logical.Expr, error) {
	var plain []scalar.Expr
	for _, c := range conjuncts(nil, where) {
		if ex, ok := c.(*sql.ExistsExpr); ok {
			var err error
			tree, err = b.bindExists(tree, sc, ex)
			if err != nil {
				return nil, err
			}
			continue
		}
		e, err := b.bindExpr(c, sc)
		if err != nil {
			return nil, err
		}
		plain = append(plain, e)
	}
	if len(plain) > 0 {
		tree = &logical.Expr{
			Op: logical.OpSelect, Children: []*logical.Expr{tree},
			Filter: scalar.MakeAnd(plain),
		}
	}
	return tree, nil
}

// conjuncts appends e's top-level AND operands to dst.
func conjuncts(dst []sql.Expr, e sql.Expr) []sql.Expr {
	if bin, ok := e.(*sql.BinExpr); ok && bin.Op == "AND" {
		return conjuncts(conjuncts(dst, bin.L), bin.R)
	}
	return append(dst, e)
}

// bindExists turns an EXISTS subquery into a semi join (NOT EXISTS into an
// anti join). For a simple correlated subquery (a single SELECT whose
// correlation appears in its WHERE clause) the select list and grouping are
// irrelevant to existence and are ignored; the correlated conjuncts become
// the join predicate.
func (b *binder) bindExists(tree *logical.Expr, sc *scope, ex *sql.ExistsExpr) (*logical.Expr, error) {
	op := logical.OpSemiJoin
	if ex.Neg {
		op = logical.OpAntiJoin
	}
	sel, ok := ex.Q.(*sql.Select)
	if !ok {
		// Uncorrelated set operation: bind it whole; the join predicate is
		// TRUE (pure existence).
		inner, _, err := b.bindStmt(ex.Q, nil)
		if err != nil {
			return nil, err
		}
		return &logical.Expr{Op: op, Children: []*logical.Expr{tree, inner}, On: scalar.TrueExpr()}, nil
	}
	inner, innerScope, err := b.bindFromClause(sel.From)
	if err != nil {
		return nil, err
	}
	innerCols := inner.OutputColSet()
	var innerConj, onConj []scalar.Expr
	if sel.Where != nil {
		innerScope.outer = sc
		for _, c := range conjuncts(nil, sel.Where) {
			if _, nested := c.(*sql.ExistsExpr); nested {
				return nil, fmt.Errorf("bind: nested EXISTS inside EXISTS is not supported")
			}
			e, err := b.bindExpr(c, innerScope)
			if err != nil {
				return nil, err
			}
			if scalar.ReferencedCols(e).SubsetOf(innerCols) {
				innerConj = append(innerConj, e)
			} else {
				onConj = append(onConj, e)
			}
		}
	}
	if len(innerConj) > 0 {
		inner = &logical.Expr{
			Op: logical.OpSelect, Children: []*logical.Expr{inner},
			Filter: scalar.MakeAnd(innerConj),
		}
	}
	return &logical.Expr{
		Op: op, Children: []*logical.Expr{tree, inner}, On: scalar.MakeAnd(onConj),
	}, nil
}

func (b *binder) bindIdent(e sql.Expr, sc *scope) (scalar.ColumnID, error) {
	id, ok := e.(*sql.Ident)
	if !ok {
		return 0, fmt.Errorf("bind: expected a column reference, found %s", sql.FormatExpr(e))
	}
	return sc.resolve(id.Qual, id.Name)
}

func (b *binder) bindAgg(call *sql.CallExpr, sc *scope) (scalar.Agg, error) {
	var op scalar.AggOp
	switch call.Name {
	case "COUNT":
		if call.Star {
			op = scalar.AggCountStar
		} else {
			op = scalar.AggCount
		}
	case "SUM":
		op = scalar.AggSum
	case "MIN":
		op = scalar.AggMin
	case "MAX":
		op = scalar.AggMax
	case "AVG":
		op = scalar.AggAvg
	default:
		return scalar.Agg{}, fmt.Errorf("bind: unknown aggregate %q", call.Name)
	}
	var arg scalar.Expr
	if !call.Star {
		var err error
		arg, err = b.bindExpr(call.Arg, sc)
		if err != nil {
			return scalar.Agg{}, err
		}
	}
	typ := datum.TypeInt
	switch op {
	case scalar.AggAvg:
		typ = datum.TypeFloat
	case scalar.AggSum, scalar.AggMin, scalar.AggMax:
		typ = b.typeOf(arg)
	}
	out := b.md.AddColumn(logical.ColumnMeta{Name: "agg", Type: typ})
	return scalar.Agg{Op: op, Arg: arg, Out: out}, nil
}

func (b *binder) bindExpr(e sql.Expr, sc *scope) (scalar.Expr, error) {
	switch t := e.(type) {
	case *sql.Ident:
		id, err := sc.resolve(t.Qual, t.Name)
		if err != nil {
			return nil, err
		}
		return &scalar.ColRef{ID: id}, nil
	case *sql.IntLit:
		return &scalar.Const{D: datum.NewInt(t.V)}, nil
	case *sql.FloatLit:
		return &scalar.Const{D: datum.NewFloat(t.V)}, nil
	case *sql.StrLit:
		return &scalar.Const{D: datum.NewString(t.V)}, nil
	case *sql.BoolLit:
		return &scalar.Const{D: datum.NewBool(t.V)}, nil
	case *sql.NullLit:
		return &scalar.Const{D: datum.Null}, nil
	case *sql.NotExpr:
		kid, err := b.bindExpr(t.E, sc)
		if err != nil {
			return nil, err
		}
		return &scalar.Not{Kid: kid}, nil
	case *sql.IsNullExpr:
		kid, err := b.bindExpr(t.E, sc)
		if err != nil {
			return nil, err
		}
		if t.Neg {
			return &scalar.Not{Kid: &scalar.IsNull{Kid: kid}}, nil
		}
		return &scalar.IsNull{Kid: kid}, nil
	case *sql.BinExpr:
		l, err := b.bindExpr(t.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(t.R, sc)
		if err != nil {
			return nil, err
		}
		return b.combineBin(t.Op, l, r)
	case *sql.InExpr:
		kid, err := b.bindExpr(t.E, sc)
		if err != nil {
			return nil, err
		}
		var alts []scalar.Expr
		for _, item := range t.List {
			v, err := b.bindExpr(item, sc)
			if err != nil {
				return nil, err
			}
			alts = append(alts, &scalar.Cmp{Op: scalar.CmpEQ, L: kid, R: v})
		}
		var out scalar.Expr = &scalar.Or{Kids: alts}
		if t.Neg {
			out = &scalar.Not{Kid: out}
		}
		return out, nil
	case *sql.BetweenExpr:
		kid, err := b.bindExpr(t.E, sc)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(t.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(t.Hi, sc)
		if err != nil {
			return nil, err
		}
		return &scalar.And{Kids: []scalar.Expr{
			&scalar.Cmp{Op: scalar.CmpGE, L: kid, R: lo},
			&scalar.Cmp{Op: scalar.CmpLE, L: kid, R: hi},
		}}, nil
	case *sql.CallExpr:
		return nil, fmt.Errorf("bind: aggregate %s not allowed here", t.Name)
	case *sql.ExistsExpr:
		return nil, fmt.Errorf("bind: EXISTS is only supported as a top-level WHERE conjunct")
	default:
		return nil, fmt.Errorf("bind: unsupported expression %T", e)
	}
}

// typeOf infers the result type of a bound scalar expression.
func (b *binder) typeOf(e scalar.Expr) datum.Type {
	switch t := e.(type) {
	case *scalar.ColRef:
		return b.md.Column(t.ID).Type
	case *scalar.Const:
		return t.D.TypeOf()
	case *scalar.Cmp, *scalar.And, *scalar.Or, *scalar.Not, *scalar.IsNull:
		return datum.TypeBool
	case *scalar.Arith:
		l, r := b.typeOf(t.L), b.typeOf(t.R)
		if l == datum.TypeInt && r == datum.TypeInt {
			return datum.TypeInt
		}
		return datum.TypeFloat
	default:
		return datum.TypeUnknown
	}
}

// containsAggregate reports whether the AST expression contains an aggregate
// call.
func containsAggregate(e sql.Expr) bool {
	switch t := e.(type) {
	case nil:
		return false
	case *sql.CallExpr:
		return true
	case *sql.BinExpr:
		return containsAggregate(t.L) || containsAggregate(t.R)
	case *sql.NotExpr:
		return containsAggregate(t.E)
	case *sql.IsNullExpr:
		return containsAggregate(t.E)
	case *sql.InExpr:
		if containsAggregate(t.E) {
			return true
		}
		for _, item := range t.List {
			if containsAggregate(item) {
				return true
			}
		}
		return false
	case *sql.BetweenExpr:
		return containsAggregate(t.E) || containsAggregate(t.Lo) || containsAggregate(t.Hi)
	default:
		return false
	}
}

// bindHaving binds a HAVING predicate: aggregate calls become references to
// aggregation outputs (reusing an existing identical aggregate or appending
// a new one), and plain column references must be grouping columns.
func (b *binder) bindHaving(e sql.Expr, sc *scope, groupSet scalar.ColSet, aggs *[]scalar.Agg) (scalar.Expr, error) {
	if call, ok := e.(*sql.CallExpr); ok {
		ag, err := b.bindAgg(call, sc)
		if err != nil {
			return nil, err
		}
		for _, existing := range *aggs {
			if sameAggregate(existing, ag) {
				return &scalar.ColRef{ID: existing.Out}, nil
			}
		}
		*aggs = append(*aggs, ag)
		return &scalar.ColRef{ID: ag.Out}, nil
	}
	switch t := e.(type) {
	case *sql.BinExpr:
		l, err := b.bindHaving(t.L, sc, groupSet, aggs)
		if err != nil {
			return nil, err
		}
		r, err := b.bindHaving(t.R, sc, groupSet, aggs)
		if err != nil {
			return nil, err
		}
		return b.combineBin(t.Op, l, r)
	case *sql.NotExpr:
		kid, err := b.bindHaving(t.E, sc, groupSet, aggs)
		if err != nil {
			return nil, err
		}
		return &scalar.Not{Kid: kid}, nil
	case *sql.IsNullExpr:
		kid, err := b.bindHaving(t.E, sc, groupSet, aggs)
		if err != nil {
			return nil, err
		}
		if t.Neg {
			return &scalar.Not{Kid: &scalar.IsNull{Kid: kid}}, nil
		}
		return &scalar.IsNull{Kid: kid}, nil
	default:
		out, err := b.bindExpr(e, sc)
		if err != nil {
			return nil, err
		}
		if !scalar.ReferencedCols(out).SubsetOf(groupSet) {
			return nil, fmt.Errorf("bind: HAVING may only reference aggregates and GROUP BY columns")
		}
		return out, nil
	}
}

// sameAggregate reports whether two aggregates compute the same value: they
// are structurally equal but for their output ids.
func sameAggregate(a, b scalar.Agg) bool {
	b.Out = a.Out
	return a.Equal(b)
}

// combineBin maps a SQL binary operator over two bound operands.
func (b *binder) combineBin(op string, l, r scalar.Expr) (scalar.Expr, error) {
	switch op {
	case "AND":
		return &scalar.And{Kids: []scalar.Expr{l, r}}, nil
	case "OR":
		return &scalar.Or{Kids: []scalar.Expr{l, r}}, nil
	}
	for c := scalar.CmpEQ; c <= scalar.CmpGE; c++ {
		if c.String() == op {
			return &scalar.Cmp{Op: c, L: l, R: r}, nil
		}
	}
	for a := scalar.ArithAdd; a <= scalar.ArithMul; a++ {
		if a.String() == op {
			return &scalar.Arith{Op: a, L: l, R: r}, nil
		}
	}
	return nil, fmt.Errorf("bind: unsupported operator %q", op)
}
