package qgen

import (
	"errors"
	"fmt"
	"slices"

	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/rules"
	"qtrtest/internal/scalar"
)

// errCannotInstantiate signals that a pattern or operator cannot be given
// valid arguments against this catalog; the caller retries with a different
// shape.
var errCannotInstantiate = errors.New("qgen: cannot instantiate operator")

// instantiate turns a rule pattern into a concrete logical query tree
// (§3.1): generic operators become leaf subtrees (base table scans), and
// each concrete operator gets arguments chosen so that the known
// preconditions of the rules over that shape plausibly hold.
func (g *Generator) instantiate(p *rules.Pattern, md *logical.Metadata) (*logical.Expr, error) {
	if p.IsGeneric() {
		return g.randomLeaf(md)
	}
	kids := make([]*logical.Expr, len(p.Children))
	for i, pc := range p.Children {
		k, err := g.instantiate(pc, md)
		if err != nil {
			return nil, err
		}
		kids[i] = k
	}
	if p.Op == logical.OpGet {
		// Implementation-rule patterns have concrete Get leaves.
		return g.randomGet(md)
	}
	if len(kids) == 0 {
		// A concrete non-leaf operator in a pattern always carries its
		// children as generics; a bare one gets leaf children.
		arity := p.Op.Arity()
		for i := 0; i < arity; i++ {
			k, err := g.randomLeaf(md)
			if err != nil {
				return nil, err
			}
			kids = append(kids, k)
		}
	}
	return g.buildOp(p.Op, kids, md)
}

// randomLeaf produces the subtree standing in for a generic pattern slot: a
// base table scan.
func (g *Generator) randomLeaf(md *logical.Metadata) (*logical.Expr, error) {
	return g.randomGet(md)
}

func (g *Generator) randomGet(md *logical.Metadata) (*logical.Expr, error) {
	names := md.Catalog().TableNames()
	if len(names) == 0 {
		return nil, errors.New("qgen: catalog has no tables")
	}
	return md.AddTable(names[g.rng.Intn(len(names))])
}

// buildOp instantiates one operator's arguments over the given children.
func (g *Generator) buildOp(op logical.Op, kids []*logical.Expr, md *logical.Metadata) (*logical.Expr, error) {
	switch op {
	case logical.OpSelect:
		f, err := g.makeFilter(kids[0], md)
		if err != nil {
			return nil, err
		}
		return &logical.Expr{Op: logical.OpSelect, Children: kids, Filter: f}, nil

	case logical.OpProject:
		items, err := g.makeProjection(kids[0], md)
		if err != nil {
			return nil, err
		}
		return &logical.Expr{Op: logical.OpProject, Children: kids, Projs: items}, nil

	case logical.OpJoin, logical.OpLeftJoin, logical.OpSemiJoin, logical.OpAntiJoin:
		on, err := g.makeJoinPred(kids[0], kids[1], md)
		if err != nil {
			return nil, err
		}
		return &logical.Expr{Op: op, Children: kids, On: on}, nil

	case logical.OpGroupBy:
		gc, aggs, err := g.makeGrouping(kids[0], md)
		if err != nil {
			return nil, err
		}
		return &logical.Expr{Op: logical.OpGroupBy, Children: kids, GroupCols: gc, Aggs: aggs}, nil

	case logical.OpUnionAll:
		return g.makeUnion(kids[0], kids[1], md)

	case logical.OpLimit:
		return &logical.Expr{Op: logical.OpLimit, Children: kids, N: int64(1 + g.rng.Intn(100))}, nil

	case logical.OpSort:
		cols := kids[0].OutputCols()
		if len(cols) == 0 {
			return nil, errCannotInstantiate
		}
		key := logical.SortKey{Col: cols[g.rng.Intn(len(cols))], Desc: g.rng.Intn(2) == 0}
		return &logical.Expr{Op: logical.OpSort, Children: kids, Keys: []logical.SortKey{key}}, nil
	}
	return nil, fmt.Errorf("qgen: cannot instantiate operator %s", op)
}

// predicateTypes are the column types usable in predicates.
var predicateTypes = []datum.Type{datum.TypeInt, datum.TypeFloat, datum.TypeString, datum.TypeDate}

// ofType returns the members of cols of one of the types, in order. It builds
// them in *buf, one of the generator's lists, and leaves it there for the
// next call: the result is valid until then, and nothing built from it may
// keep it.
func ofType(buf *[]scalar.ColumnID, cols []scalar.ColumnID, md *logical.Metadata, types ...datum.Type) []scalar.ColumnID {
	out := (*buf)[:0]
	for _, c := range cols {
		if slices.Contains(types, md.Column(c).Type) {
			out = append(out, c)
		}
	}
	*buf = out
	return out
}

// sampleConst draws a literal for comparisons against col, preferring an
// actual value from the base table so that predicates are selective but not
// always empty.
func (g *Generator) sampleConst(col scalar.ColumnID, md *logical.Metadata) scalar.Expr {
	if t, idx, ok := md.BaseColumn(col); ok && len(t.Rows) > 0 {
		row := t.Rows[g.rng.Intn(len(t.Rows))]
		return &scalar.Const{D: row[idx]}
	}
	switch md.Column(col).Type {
	case datum.TypeFloat:
		return &scalar.Const{D: datum.NewFloat(float64(g.rng.Intn(1000)))}
	case datum.TypeString:
		return &scalar.Const{D: datum.NewString("v")}
	case datum.TypeDate:
		return &scalar.Const{D: datum.NewDate(int64(g.rng.Intn(2557)))}
	default:
		return &scalar.Const{D: datum.NewInt(int64(g.rng.Intn(100)))}
	}
}

var cmpOps = []scalar.CmpOp{scalar.CmpEQ, scalar.CmpLT, scalar.CmpLE, scalar.CmpGT, scalar.CmpGE, scalar.CmpNE}

// makeFilter builds a selection predicate over the child. Shape-aware
// heuristics raise the chance that the rules matching Select(child) have
// their extra preconditions satisfied (§3.1: preconditions abstracted in the
// engine can be leveraged during generation):
//
//   - over a GroupBy, prefer filtering on grouping columns (rule 12);
//   - over a LeftJoin, filter the left side or null-reject the right side
//     (rules 8 and 9), each half the time.
func (g *Generator) makeFilter(child *logical.Expr, md *logical.Metadata) (scalar.Expr, error) {
	pool := ofType(&g.cols, child.OutputCols(), md, predicateTypes...)
	switch child.Op {
	case logical.OpGroupBy:
		if len(child.GroupCols) > 0 && g.rng.Intn(4) > 0 {
			pool = ofType(&g.cols, child.GroupCols, md, predicateTypes...)
		}
	case logical.OpLeftJoin:
		side := child.Children[g.rng.Intn(2)]
		pool = ofType(&g.cols, side.OutputCols(), md, predicateTypes...)
	}
	if len(pool) == 0 {
		pool = ofType(&g.cols, child.OutputCols(), md, predicateTypes...)
	}
	if len(pool) == 0 {
		return nil, errCannotInstantiate
	}
	col := pool[g.rng.Intn(len(pool))]
	cmp := &scalar.Cmp{
		Op: cmpOps[g.rng.Intn(len(cmpOps))],
		L:  &scalar.ColRef{ID: col},
		R:  g.sampleConst(col, md),
	}
	// Occasionally add a second conjunct or an IS NULL disjunct for variety.
	switch g.rng.Intn(5) {
	case 0:
		col2 := pool[g.rng.Intn(len(pool))]
		return &scalar.And{Kids: []scalar.Expr{cmp, &scalar.Cmp{
			Op: cmpOps[g.rng.Intn(len(cmpOps))],
			L:  &scalar.ColRef{ID: col2},
			R:  g.sampleConst(col2, md),
		}}}, nil
	case 1:
		return &scalar.Or{Kids: []scalar.Expr{cmp, &scalar.IsNull{Kid: &scalar.ColRef{ID: col}}}}, nil
	default:
		return cmp, nil
	}
}

// makeProjection keeps a nonempty random subset of the child's columns,
// sometimes adding a computed item.
func (g *Generator) makeProjection(child *logical.Expr, md *logical.Metadata) ([]logical.ProjItem, error) {
	cols := child.OutputCols()
	if len(cols) == 0 {
		return nil, errCannotInstantiate
	}
	var items []logical.ProjItem
	for _, c := range cols {
		if g.rng.Intn(3) > 0 { // keep ~2/3 of the columns
			items = append(items, logical.ProjItem{Out: c, E: &scalar.ColRef{ID: c}})
		}
	}
	if len(items) == 0 {
		c := cols[g.rng.Intn(len(cols))]
		items = append(items, logical.ProjItem{Out: c, E: &scalar.ColRef{ID: c}})
	}
	// A computed item with ~1/3 probability.
	if nums := ofType(&g.cols, cols, md, datum.TypeInt, datum.TypeFloat); len(nums) > 0 && g.rng.Intn(3) == 0 {
		c := nums[g.rng.Intn(len(nums))]
		out := md.AddColumn(logical.ColumnMeta{Name: "expr", Type: datum.TypeFloat})
		items = append(items, logical.ProjItem{
			Out: out,
			E: &scalar.Arith{
				Op: scalar.ArithAdd,
				L:  &scalar.ColRef{ID: c},
				R:  &scalar.Const{D: datum.NewInt(int64(g.rng.Intn(10)))},
			},
		})
	}
	return items, nil
}

// excludeCols returns cols with the members of drop removed, preserving order.
func excludeCols(cols []scalar.ColumnID, drop scalar.ColSet) []scalar.ColumnID {
	var out []scalar.ColumnID
	for _, c := range cols {
		if !drop.Contains(c) {
			out = append(out, c)
		}
	}
	return out
}

// keyCols returns the child's columns that belong to the primary key of the
// base table the child scans, when the child is a Get.
func keyCols(e *logical.Expr, md *logical.Metadata) []scalar.ColumnID {
	if e.Op != logical.OpGet {
		return nil
	}
	t, err := md.Catalog().Table(e.Table)
	if err != nil || len(t.PrimaryKey) != 1 {
		return nil
	}
	idx := t.ColumnIndex(t.PrimaryKey[0])
	if idx < 0 || idx >= len(e.Cols) {
		return nil
	}
	return []scalar.ColumnID{e.Cols[idx]}
}

// joinPoolCols selects the columns of a join input worth joining on, in
// *buf as ofType does. Over a GroupBy child the grouping columns are
// used (aggregate outputs in a join predicate block the group-by reordering
// rules); over a Get the primary key is preferred half the time, which also
// satisfies the duplicate-free preconditions of rules 14–16.
func (g *Generator) joinPoolCols(buf *[]scalar.ColumnID, e *logical.Expr, md *logical.Metadata) []scalar.ColumnID {
	if e.Op == logical.OpGroupBy && len(e.GroupCols) > 0 {
		return ofType(buf, e.GroupCols, md, predicateTypes...)
	}
	if pk := keyCols(e, md); pk != nil && g.rng.Intn(2) == 0 {
		return pk
	}
	return ofType(buf, e.OutputCols(), md, predicateTypes...)
}

// colPair is a candidate equi-join column pair.
type colPair struct{ a, b scalar.ColumnID }

// makeJoinPred builds an equality predicate between type-compatible columns
// of the two inputs, occasionally adding a non-equi conjunct.
func (g *Generator) makeJoinPred(l, r *logical.Expr, md *logical.Metadata) (scalar.Expr, error) {
	lc := g.joinPoolCols(&g.cols, l, md)
	rc := g.joinPoolCols(&g.cols2, r, md)
	pairs := g.pairs[:0]
	for _, a := range lc {
		for _, b := range rc {
			if typeClass(md.Column(a).Type) == typeClass(md.Column(b).Type) {
				pairs = append(pairs, colPair{a, b})
			}
		}
	}
	g.pairs = pairs
	if len(pairs) == 0 {
		return nil, errCannotInstantiate
	}
	p := pairs[g.rng.Intn(len(pairs))]
	eq := &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: p.a}, R: &scalar.ColRef{ID: p.b}}
	if g.rng.Intn(5) == 0 {
		q := pairs[g.rng.Intn(len(pairs))]
		return &scalar.And{Kids: []scalar.Expr{eq, &scalar.Cmp{
			Op: scalar.CmpLE, L: &scalar.ColRef{ID: q.a}, R: &scalar.ColRef{ID: q.b},
		}}}, nil
	}
	return eq, nil
}

// typeClass folds numeric types together for join-compatibility.
func typeClass(t datum.Type) int {
	switch t {
	case datum.TypeInt, datum.TypeFloat, datum.TypeDate:
		return 0
	case datum.TypeString:
		return 1
	default:
		return 2
	}
}

var aggOps = []scalar.AggOp{
	scalar.AggCountStar, scalar.AggCount, scalar.AggSum,
	scalar.AggMin, scalar.AggMax, scalar.AggSum, scalar.AggAvg,
}

// makeGrouping picks grouping columns and aggregates. Over a Join child, the
// join's left-side equality columns are forced into the grouping columns and
// the aggregates read the left input — the precondition of the group-by
// push-down rule (the paper's running example of a rule that a pattern alone
// cannot guarantee, §1).
func (g *Generator) makeGrouping(child *logical.Expr, md *logical.Metadata) ([]scalar.ColumnID, []scalar.Agg, error) {
	cols := child.OutputCols()
	if len(cols) == 0 {
		return nil, nil, errCannotInstantiate
	}
	var gcSet scalar.ColSet
	var gc []scalar.ColumnID
	aggPool := cols

	if child.Op.IsJoin() && child.On != nil {
		left := child.Children[0].OutputColSet()
		right := child.Children[1].OutputColSet()
		pairs, _ := logical.EquiJoinCols(child.On, left, right)
		for _, p := range pairs {
			if !gcSet.Contains(p[0]) {
				gcSet.Add(p[0])
				gc = append(gc, p[0])
			}
		}
		aggPool = child.Children[0].OutputCols()
	}
	pool := ofType(&g.cols, cols, md, predicateTypes...)
	if len(pool) == 0 {
		return nil, nil, errCannotInstantiate
	}
	for len(gc) == 0 || (len(gc) < 3 && g.rng.Intn(2) == 0) {
		c := pool[g.rng.Intn(len(pool))]
		if !gcSet.Contains(c) {
			gcSet.Add(c)
			gc = append(gc, c)
		}
		if len(gc) >= len(pool) {
			break
		}
	}
	var aggs []scalar.Agg
	nAggs := g.rng.Intn(3)
	nums := ofType(&g.cols, aggPool, md, datum.TypeInt, datum.TypeFloat)
	// Prefer aggregating columns outside the grouping key: an aggregate over
	// a grouping column is constant per group, so MIN/MAX/SUM over it cannot
	// distinguish a correct implementation from a subtly wrong one.
	if nonGC := excludeCols(nums, gcSet); len(nonGC) > 0 {
		nums = nonGC
	}
	// SUM and AVG accumulate in input order, so over float columns their low
	// bits depend on the plan's row order — a false-mismatch source for any
	// exact-equality oracle. Restrict them to integer columns, where
	// accumulation is exact and order-independent.
	ints := ofType(&g.cols2, nums, md, datum.TypeInt)
	for i := 0; i < nAggs; i++ {
		op := aggOps[g.rng.Intn(len(aggOps))]
		pool := nums
		if op == scalar.AggSum || op == scalar.AggAvg {
			if len(ints) == 0 {
				op = scalar.AggMin
			} else {
				pool = ints
			}
		}
		var arg scalar.Expr
		typ := datum.TypeInt
		if op != scalar.AggCountStar {
			if len(pool) == 0 {
				op = scalar.AggCountStar
			} else {
				c := pool[g.rng.Intn(len(pool))]
				arg = &scalar.ColRef{ID: c}
				switch op {
				case scalar.AggCount:
					typ = datum.TypeInt
				case scalar.AggAvg:
					typ = datum.TypeFloat
				default:
					typ = md.Column(c).Type
				}
			}
		}
		out := md.AddColumn(logical.ColumnMeta{Name: "agg", Type: typ})
		aggs = append(aggs, scalar.Agg{Op: op, Arg: arg, Out: out})
	}
	return gc, aggs, nil
}

// makeUnion aligns two inputs on type-compatible column lists and builds a
// UNION ALL over them.
func (g *Generator) makeUnion(l, r *logical.Expr, md *logical.Metadata) (*logical.Expr, error) {
	classify := func(e *logical.Expr) (byClass [2][]scalar.ColumnID) {
		for _, c := range e.OutputCols() {
			if k := typeClass(md.Column(c).Type); k != 2 {
				byClass[k] = append(byClass[k], c)
			}
		}
		return byClass
	}
	lc, rc := classify(l), classify(r)
	var lin, rin []scalar.ColumnID
	for k := 0; k < 2; k++ {
		ls, rs := lc[k], rc[k]
		for i := 0; i < min(len(ls), len(rs), 2); i++ {
			lin = append(lin, ls[i])
			rin = append(rin, rs[i])
		}
	}
	if len(lin) == 0 {
		return nil, errCannotInstantiate
	}
	outs := make([]scalar.ColumnID, len(lin))
	for i := range lin {
		outs[i] = md.AddColumn(logical.ColumnMeta{Name: "u", Type: md.Column(lin[i]).Type})
	}
	return &logical.Expr{
		Op: logical.OpUnionAll, Children: []*logical.Expr{l, r},
		OutCols: outs, InputCols: [][]scalar.ColumnID{lin, rin},
	}, nil
}

// wrapRandomOp adds one random operator above the tree (§2.3's mechanism for
// generating more complex queries that still exercise a rule).
func (g *Generator) wrapRandomOp(tree *logical.Expr, md *logical.Metadata) (*logical.Expr, error) {
	for attempt := 0; attempt < 8; attempt++ {
		op := randomWeights.pick(g.rng)
		var kids []*logical.Expr
		if op.Arity() == 2 {
			leaf, err := g.randomLeaf(md)
			if err != nil {
				return nil, err
			}
			if g.rng.Intn(2) == 0 {
				kids = []*logical.Expr{tree, leaf}
			} else {
				kids = []*logical.Expr{leaf, tree}
			}
		} else {
			kids = []*logical.Expr{tree}
		}
		wrapped, err := g.buildOp(op, kids, md)
		if err == nil {
			return wrapped, nil
		}
		if !errors.Is(err, errCannotInstantiate) {
			return nil, err
		}
	}
	return tree, nil
}
