package verify

import (
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/rules"
	"qtrtest/internal/scalar"
)

// instance is one canonical instantiation of a rule pattern: a concrete
// logical tree whose leaves scan the verification schema, plus the metadata
// its column ids live in and the tables its leaves touch (in first-use
// order, deduplicated — the database enumeration iterates over these).
type instance struct {
	tree   *logical.Expr
	md     *logical.Metadata
	tables []string
}

// maxInstances caps the per-rule instantiation count. The payload
// vocabularies are sized so real patterns stay under it (the largest —
// Select over a join — yields 40); the cap is a safety valve against a
// future pattern shape exploding the cross product, and a trip is reported
// as a truncation in the rule's stats rather than silently dropped.
const maxInstances = 64

// instBuilder enumerates the instantiations for one leaf-table assignment.
// All variants of one assignment share a metadata (column ids are unique
// per leaf position, so trees sharing Get nodes stay self-consistent); each
// rule check owns its builder, so cross-rule parallelism never races on it.
type instBuilder struct {
	md     *logical.Metadata
	leaves []string // table per leaf position
	next   int      // next leaf position to assign
}

// enumerate returns every canonical instantiation of the pattern: two leaf
// assignments (all-plain, and the last leaf swapped to the keyed table so
// key-dependent preconditions can fire) crossed with the per-operator
// payload vocabularies.
func enumerate(p *rules.Pattern) ([]*instance, bool) {
	n := countLeaves(p)
	assigns := [][]string{leafAssignment(n, false)}
	if n > 0 {
		assigns = append(assigns, leafAssignment(n, true))
	}
	var out []*instance
	truncated := false
	for _, leaves := range assigns {
		b := &instBuilder{md: logical.NewMetadata(schemaCatalog()), leaves: leaves}
		trees := b.enum(p)
		for _, tr := range trees {
			if len(out) >= maxInstances {
				truncated = true
				break
			}
			out = append(out, &instance{tree: tr, md: b.md, tables: usedTables(tr)})
		}
	}
	return out, truncated
}

// countLeaves counts the pattern positions that become table scans: generic
// placeholders and concrete Get nodes.
func countLeaves(p *rules.Pattern) int {
	if p.IsGeneric() || p.Op == logical.OpGet {
		return 1
	}
	n := 0
	for _, c := range p.Children {
		n += countLeaves(c)
	}
	return n
}

// leafAssignment maps leaf positions to tables: plain tables positionally,
// cycling if a pattern ever has more leaves than the pool; with keyed set,
// the last leaf scans the keyed table instead.
func leafAssignment(n int, keyed bool) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = plainTables[i%len(plainTables)]
	}
	if keyed && n > 0 {
		out[n-1] = keyedTable
	}
	return out
}

// usedTables lists the distinct tables a tree scans, in first-use order.
func usedTables(tree *logical.Expr) []string {
	var out []string
	seen := map[string]bool{}
	tree.Walk(func(e *logical.Expr) {
		if e.Op == logical.OpGet && !seen[e.Table] {
			seen[e.Table] = true
			out = append(out, e.Table)
		}
	})
	return out
}

// enum returns the instantiation variants for one pattern node: the cross
// product of its children's variants, expanded by this operator's payload
// vocabulary.
func (b *instBuilder) enum(p *rules.Pattern) []*logical.Expr {
	if p.IsGeneric() || p.Op == logical.OpGet {
		table := b.leaves[b.next]
		b.next++
		get, err := b.md.AddTable(table)
		if err != nil {
			// The leaf pool only names schema tables; a miss is a bug in
			// this package, not an input condition.
			panic("verify: " + err.Error())
		}
		return []*logical.Expr{get}
	}
	combos := [][]*logical.Expr{nil}
	for _, c := range p.Children {
		kidVariants := b.enum(c)
		next := make([][]*logical.Expr, 0, len(combos)*len(kidVariants))
		for _, combo := range combos {
			for _, kv := range kidVariants {
				next = append(next, append(append([]*logical.Expr(nil), combo...), kv))
			}
		}
		combos = next
	}
	var out []*logical.Expr
	for _, kids := range combos {
		out = append(out, b.payloadVariants(p.Op, kids)...)
	}
	return out
}

// payloadVariants builds the operator payload vocabulary over the given
// children. The vocabulary is the verifier's scalar small scope: enough
// shapes to trip every precondition class the rule pack tests (null
// rejection, conjunct splitting, equi-join detection, aggregation typing,
// order pinning) without an unbounded expression grammar.
func (b *instBuilder) payloadVariants(op logical.Op, kids []*logical.Expr) []*logical.Expr {
	switch op {
	case logical.OpSelect:
		return selectVariants(kids[0])
	case logical.OpJoin, logical.OpLeftJoin, logical.OpSemiJoin, logical.OpAntiJoin:
		return joinVariants(op, kids[0], kids[1])
	case logical.OpProject:
		return b.projectVariants(kids[0])
	case logical.OpGroupBy:
		return b.groupByVariants(kids[0])
	case logical.OpUnionAll:
		return b.unionVariants(kids[0], kids[1])
	case logical.OpSort:
		return sortVariants(kids[0])
	case logical.OpLimit:
		return limitVariants(kids[0])
	}
	// An operator this vocabulary cannot instantiate (e.g. a future pattern
	// op) yields no variants; the rule is reported as not exercised rather
	// than wrongly passed.
	return nil
}

func colRef(c scalar.ColumnID) scalar.Expr { return scalar.Ref(c) }
func intConst(v int64) scalar.Expr         { return &scalar.Const{D: datum.NewInt(v)} }
func ge(l, r scalar.Expr) scalar.Expr      { return &scalar.Cmp{Op: scalar.CmpGE, L: l, R: r} }
func eq(l, r scalar.Expr) scalar.Expr      { return &scalar.Cmp{Op: scalar.CmpEQ, L: l, R: r} }
func add(l, r scalar.Expr) scalar.Expr     { return &scalar.Arith{Op: scalar.ArithAdd, L: l, R: r} }
func firstLast(e *logical.Expr) (f, l scalar.ColumnID) {
	cols := e.OutputCols()
	return cols[0], cols[len(cols)-1]
}

// selectVariants: filters over the child's first and last columns. The set
// covers a left-only predicate (catches unsound outer-join simplification),
// a last-column predicate (null-rejecting on the right side, so the sound
// simplification fires too), a two-conjunct AND (pushdown splitting,
// dropped-conjunct faults, De Morgan), IS NULL (non-null-rejecting), and a
// nested-arithmetic disjunction (exercises the arithmetic EET rewrites).
func selectVariants(kid *logical.Expr) []*logical.Expr {
	f, l := firstLast(kid)
	filters := []scalar.Expr{
		ge(colRef(f), intConst(0)),
	}
	if l != f {
		filters = append(filters, ge(colRef(l), intConst(0)))
	}
	filters = append(filters,
		&scalar.And{Kids: []scalar.Expr{ge(colRef(f), intConst(0)), ge(colRef(l), intConst(1))}},
		&scalar.IsNull{Kid: colRef(l)},
		&scalar.Or{Kids: []scalar.Expr{
			ge(add(add(colRef(f), intConst(1)), intConst(1)), colRef(l)),
			eq(colRef(f), intConst(0)),
		}},
	)
	out := make([]*logical.Expr, len(filters))
	for i, flt := range filters {
		out[i] = &logical.Expr{Op: logical.OpSelect, Filter: flt, Children: []*logical.Expr{kid}}
	}
	return out
}

// joinVariants: an adjacent equi-join (the last left column against the
// first right column — for nested joins this predicate spans the inner
// join's right side, which is what the associativity rules' conjunct
// splitting needs), a first-against-first equi-join, an equi-join with an
// extra non-key conjunct, and a non-equi inequality join.
func joinVariants(op logical.Op, l, r *logical.Expr) []*logical.Expr {
	lf, ll := firstLast(l)
	rf, _ := firstLast(r)
	ons := []scalar.Expr{
		eq(colRef(ll), colRef(rf)),
	}
	if lf != ll {
		ons = append(ons, eq(colRef(lf), colRef(rf)))
	}
	ons = append(ons,
		&scalar.And{Kids: []scalar.Expr{eq(colRef(ll), colRef(rf)), ge(colRef(lf), intConst(0))}},
		ge(colRef(lf), colRef(rf)),
	)
	out := make([]*logical.Expr, len(ons))
	for i, on := range ons {
		out[i] = &logical.Expr{Op: op, On: on, Children: []*logical.Expr{l, r}}
	}
	return out
}

// projectVariants: identity pass-through, a single-column pruning projection
// (column-pruning rules need a strict subset), and a computed column.
func (b *instBuilder) projectVariants(kid *logical.Expr) []*logical.Expr {
	cols := kid.OutputCols()
	identity := make([]logical.ProjItem, len(cols))
	for i, c := range cols {
		identity[i] = logical.ProjItem{Out: c, E: colRef(c)}
	}
	variants := [][]logical.ProjItem{identity}
	if len(cols) > 1 {
		variants = append(variants, []logical.ProjItem{{Out: cols[0], E: colRef(cols[0])}})
	}
	computed := b.md.AddColumn(logical.ColumnMeta{Name: "v", Type: datum.TypeInt})
	variants = append(variants, []logical.ProjItem{
		{Out: cols[0], E: colRef(cols[0])},
		{Out: computed, E: add(colRef(cols[0]), intConst(1))},
	})
	out := make([]*logical.Expr, len(variants))
	for i, projs := range variants {
		out[i] = &logical.Expr{Op: logical.OpProject, Projs: projs, Children: []*logical.Expr{kid}}
	}
	return out
}

// groupByVariants: group by the first column with MIN/MAX/SUM/COUNT(*) over
// the second (the aggregate-swap fault class needs a group with two distinct
// aggregated values), a scalar aggregation, and a group-by-everything
// DISTINCT.
func (b *instBuilder) groupByVariants(kid *logical.Expr) []*logical.Expr {
	cols := kid.OutputCols()
	first := cols[0]
	second := first
	if len(cols) > 1 {
		second = cols[1]
	}
	agg := func(op scalar.AggOp, arg scalar.Expr) scalar.Agg {
		return scalar.Agg{Op: op, Arg: arg, Out: b.md.AddColumn(logical.ColumnMeta{Name: "agg", Type: datum.TypeInt})}
	}
	grouped := &logical.Expr{
		Op:        logical.OpGroupBy,
		GroupCols: []scalar.ColumnID{first},
		Aggs: []scalar.Agg{
			agg(scalar.AggMin, colRef(second)),
			agg(scalar.AggMax, colRef(second)),
			agg(scalar.AggSum, colRef(second)),
			agg(scalar.AggCountStar, nil),
		},
		Children: []*logical.Expr{kid},
	}
	scalarAgg := &logical.Expr{
		Op: logical.OpGroupBy,
		Aggs: []scalar.Agg{
			agg(scalar.AggCountStar, nil),
			agg(scalar.AggSum, colRef(first)),
		},
		Children: []*logical.Expr{kid},
	}
	distinct := &logical.Expr{
		Op:        logical.OpGroupBy,
		GroupCols: append([]scalar.ColumnID(nil), cols...),
		Children:  []*logical.Expr{kid},
	}
	return []*logical.Expr{grouped, scalarAgg, distinct}
}

// unionVariants: one UNION ALL mapping both inputs positionally onto fresh
// output columns. Inputs of unequal width are truncated to the shorter one
// (cannot happen for the shipped patterns, whose union children are leaves).
func (b *instBuilder) unionVariants(l, r *logical.Expr) []*logical.Expr {
	lc, rc := l.OutputCols(), r.OutputCols()
	w := len(lc)
	if len(rc) < w {
		w = len(rc)
	}
	out := make([]scalar.ColumnID, w)
	for i := range out {
		out[i] = b.md.AddColumn(logical.ColumnMeta{Name: "u", Type: datum.TypeInt})
	}
	return []*logical.Expr{{
		Op:        logical.OpUnionAll,
		OutCols:   out,
		InputCols: [][]scalar.ColumnID{lc[:w], rc[:w]},
		Children:  []*logical.Expr{l, r},
	}}
}

// sortVariants: an ascending single-key sort and a descending-then-ascending
// two-key sort; the flipped-direction fault class needs at least two
// distinct leading key values, which the database vocabulary supplies.
func sortVariants(kid *logical.Expr) []*logical.Expr {
	cols := kid.OutputCols()
	out := []*logical.Expr{{
		Op:       logical.OpSort,
		Keys:     []logical.SortKey{{Col: cols[0]}},
		Children: []*logical.Expr{kid},
	}}
	if len(cols) > 1 {
		out = append(out, &logical.Expr{
			Op:       logical.OpSort,
			Keys:     []logical.SortKey{{Col: cols[0], Desc: true}, {Col: cols[1]}},
			Children: []*logical.Expr{kid},
		})
	}
	return out
}

// limitVariants: LIMIT 1 and LIMIT 2; the off-by-one fault class surfaces as
// a row-count mismatch, which the oracle treats as a definite failure even
// without a pinned order.
func limitVariants(kid *logical.Expr) []*logical.Expr {
	return []*logical.Expr{
		{Op: logical.OpLimit, N: 1, Children: []*logical.Expr{kid}},
		{Op: logical.OpLimit, N: 2, Children: []*logical.Expr{kid}},
	}
}
