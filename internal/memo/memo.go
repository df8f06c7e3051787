// Package memo implements the optimizer's memo: a forest of groups of
// logically equivalent expressions, as in Volcano/Cascades [12][13]. The
// memo provides interning (structural deduplication) of expressions, which
// is what keeps exploration to a fixpoint finite.
package memo

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"unsafe"

	"qtrtest/internal/fnv64"
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

// GroupID identifies a group of equivalent expressions. IDs start at 1.
type GroupID int

// MExpr is a logical expression inside the memo: an operator payload plus
// child group references.
type MExpr struct {
	// Node carries the operator and its arguments. Children must be ignored:
	// for expressions interned from an original query tree it still points at
	// that tree's nodes (the memo no longer pays a defensive payload clone
	// per insert), and logical trees are immutable by convention.
	Node *logical.Expr
	// Kids are the child groups, in operator order.
	Kids []GroupID
	// Group is the group this expression belongs to.
	Group GroupID
	// Ord is the expression's index within its group: (Group, Ord) is the
	// deterministic scan position the dirty-queue explorer orders its
	// worklist by.
	Ord int
	// applied records rules already fired on this expression, so each
	// (rule, expression) pair fires at most once. Rule IDs 1..64 live in the
	// bitmask (exploration rule IDs are small); anything larger overflows
	// into the slice. The common case never allocates.
	applied    uint64
	appliedBig []int32
	// internNext chains expressions whose fingerprints share an intern
	// bucket (see Memo.intern).
	internNext *MExpr
	// CreatedBy is the ID of the rule whose substitution created this
	// expression, or 0 for expressions of the original query tree. It
	// powers rule-interaction tracking (§7): rule r2 exercised on an
	// expression created by r1.
	CreatedBy int
	// Queued is scratch for whoever drives exploration over this memo: the
	// optimizer's explorer keeps its worklist-membership bits here instead of
	// in side maps keyed by expression. The memo itself never reads it.
	Queued uint8
}

// Op returns the operator of the expression.
func (e *MExpr) Op() logical.Op { return e.Node.Op }

// WasApplied reports whether the rule already fired on this expression.
func (e *MExpr) WasApplied(ruleID int) bool {
	if ruleID >= 1 && ruleID <= 64 {
		return e.applied&(1<<uint(ruleID-1)) != 0
	}
	for _, id := range e.appliedBig {
		if id == int32(ruleID) {
			return true
		}
	}
	return false
}

// MarkApplied records that the rule fired on this expression.
func (e *MExpr) MarkApplied(ruleID int) {
	if ruleID >= 1 && ruleID <= 64 {
		e.applied |= 1 << uint(ruleID-1)
		return
	}
	e.appliedBig = append(e.appliedBig, int32(ruleID))
}

// Group is a set of logically equivalent expressions with shared logical
// properties.
type Group struct {
	ID    GroupID
	Exprs []*MExpr
	// Cols is the set of columns every expression in the group produces. It
	// is read-only: groups whose operator passes its input through (Select,
	// Sort, Limit, semi joins) share the child group's set.
	Cols scalar.ColSet
	// leaf is the group's leaf BoundExpr for the binder (see LeafRef).
	leaf BoundExpr
}

// Memo holds groups and the interning table.
type Memo struct {
	MD     *logical.Metadata
	groups []*Group
	// intern maps a structural fingerprint of (payload, kids) to the
	// expressions in that hash bucket, chained through MExpr.internNext so a
	// bucket costs no slice allocation. Correctness never depends on hash
	// quality: lookups always confirm with a full PayloadEqual + kids check,
	// so a collision merely shares a bucket, never conflates expressions.
	intern map[uint64]*MExpr
	nexprs int
	// Root is the group representing the whole query.
	Root GroupID
	// onAdd, when set, observes every newly interned expression; the
	// dirty-queue explorer uses it to invalidate parent expressions.
	onAdd func(e *MExpr)
	// collideAll degrades the interning hash to a constant; tests set it to
	// force every expression into one bucket.
	collideAll bool

	// Storage everything the memo hands out is carved from. It is private to
	// this memo, so a pointer into it stays valid for as long as the memo is
	// reachable and not Reset.
	exprs  Arena[MExpr]
	grps   Arena[Group]
	kidIDs Arena[GroupID]
	// nodes holds the payloads rules build fresh (BoundNew); freeNodes those
	// whose substitute turned out to be interned already.
	nodes     Arena[logical.Expr]
	freeNodes []*logical.Expr
	// bindings holds the binder's nodes and the rules' substitutes, the rest
	// their payloads' scratch (ScratchExprs). Unlike the storage above they
	// are recycled between the rule applications of one optimization.
	bindings Arena[binding]
	conj     Arena[scalar.Expr]
	ands     Arena[scalar.And]
	projs    Arena[logical.ProjItem]
	cols     Arena[scalar.ColumnID]
}

// Arena hands out elements of doubling chunks (first, first, 2·first, … up to
// 128) that it keeps: Rewind makes all of them available again. A chunk is
// never grown, so pointers into it are stable, and a three-expression memo
// costs a few hundred bytes where a thousand-expression one costs a handful
// of allocations (none before its first Take).
type Arena[T any] struct {
	chunks [][]T
	chunk  int // index into chunks of the chunk being carved
	next   int // next unused element of that chunk
	top    int // highest chunk carved since the last zeroing rewind
	total  int // elements in all chunks
}

// Take returns n contiguous elements (nil for none), zero unless a Rewind
// left them as they were. first sizes the first chunk.
func (a *Arena[T]) Take(n, first int) []T {
	if n == 0 {
		return nil
	}
	for a.chunk < len(a.chunks) && len(a.chunks[a.chunk])-a.next < n {
		a.chunk, a.next = a.chunk+1, 0
	}
	if a.chunk == len(a.chunks) {
		size := max(n, min(max(a.total, first), 128))
		a.chunks = append(a.chunks, make([]T, size))
		a.total += size
	}
	a.top = max(a.top, a.chunk)
	out := a.chunks[a.chunk][a.next : a.next+n : a.next+n]
	a.next += n
	return out
}

// Rewind makes every element available again, zeroed if zero is set and
// otherwise as it was left.
func (a *Arena[T]) Rewind(zero bool) {
	if zero && len(a.chunks) > 0 {
		for _, c := range a.chunks[:a.top+1] {
			clear(c)
		}
		a.top = 0
	}
	a.chunk, a.next = 0, 0
}

// Fill overwrites with v what a zeroing Rewind would zero.
func (a *Arena[T]) Fill(v T) {
	if len(a.chunks) > 0 {
		for _, c := range a.chunks[:a.top+1] {
			for i := range c {
				c[i] = v
			}
		}
	}
}

// holds reports whether p points into one of the arena's chunks, which the
// collector never moves.
func (a *Arena[T]) holds(p *T) bool {
	at := uintptr(unsafe.Pointer(p))
	for _, c := range a.chunks {
		if at-uintptr(unsafe.Pointer(unsafe.SliceData(c))) < uintptr(len(c))*unsafe.Sizeof(*p) {
			return true
		}
	}
	return false
}

// New returns an empty memo over the given metadata.
func New(md *logical.Metadata) *Memo {
	m := new(Memo)
	m.Reset(md)
	return m
}

// Reset empties the memo for another query over md, keeping its storage: every
// expression, group, payload node, binding, substitute and scratch it handed out is
// zeroed and will be handed out again (groups keep the backing arrays of
// their expression lists), so the caller must hold no pointer into the memo
// past this call. The zero Memo is ready for its first Reset.
func (m *Memo) Reset(md *logical.Metadata) {
	if m.intern == nil {
		m.groups = make([]*Group, 0, 32)
		m.intern = make(map[uint64]*MExpr, 64)
	}
	// What the group, expression-list and free-node slices still hold past
	// their new lengths points into this memo's own storage, so only what
	// can keep the last query's trees reachable is zeroed.
	for _, g := range m.groups {
		*g = Group{Exprs: g.Exprs[:0]}
	}
	m.groups = m.groups[:0]
	m.grps.Rewind(false)
	m.exprs.Rewind(true)
	m.kidIDs.Rewind(false)
	m.nodes.Rewind(true)
	m.freeNodes = m.freeNodes[:0]
	m.rewindScratch(true)
	clear(m.intern)
	m.MD, m.nexprs, m.Root, m.onAdd = md, 0, 0, nil
}

// rewindScratch rewinds the storage ReleaseBindings recycles.
func (m *Memo) rewindScratch(zero bool) {
	m.bindings.Rewind(zero)
	m.conj.Rewind(zero)
	m.ands.Rewind(zero)
	m.projs.Rewind(zero)
	m.cols.Rewind(zero)
}

// Poison overwrites every expression, group, payload node, binding,
// substitute and scratch the memo has handed out with values no optimization
// produces; only Reset makes the memo usable again. It is for tests of code
// that recycles memos: whatever still points into this one afterwards reads
// poison.
func (m *Memo) Poison() {
	node := &logical.Expr{Op: -7, Table: "POISON", N: -7}
	expr := &MExpr{Node: node, Kids: []GroupID{-7}, Group: -7, Ord: -7, applied: ^uint64(0), CreatedBy: -7, Queued: 0xff}
	expr.internNext = expr
	bound := &BoundExpr{Node: node, Group: -7, Src: expr, owned: true}
	bound.Kids = []*BoundExpr{bound}
	for _, g := range m.groups {
		for i := range g.Exprs {
			g.Exprs[i] = expr
		}
		*g = Group{ID: -7, Exprs: g.Exprs, Cols: scalar.NewColSet(127, 128), leaf: *bound}
	}
	m.exprs.Fill(*expr)
	m.kidIDs.Fill(-7)
	m.nodes.Fill(*node)
	m.bindings.Fill(binding{b: *bound, kids: [2]*BoundExpr{bound, bound}, self: [1]*BoundExpr{bound}})
	m.poisonScratch()
	for fp := range m.intern {
		m.intern[fp] = expr
	}
	m.MD, m.nexprs, m.Root = nil, -7, -7
}

// PoisonReleased makes every ReleaseBindings, and rules.Context.RewindKeys,
// poison the scratch it recycles: tests set it, so that an expression,
// payload or plan still pointing there reads poison.
var PoisonReleased atomic.Bool

// poisonScratch overwrites the substitutes' scratch with poison.
func (m *Memo) poisonScratch() {
	bad := &scalar.ColRef{ID: -7}
	m.conj.Fill(bad)
	m.ands.Fill(scalar.And{Kids: []scalar.Expr{bad}})
	m.projs.Fill(logical.ProjItem{Out: -7, E: bad})
	m.cols.Fill(-7)
}

// SetOnAdd registers fn to be called for every newly interned expression
// (nil unregisters). The optimizer's explorer uses this to maintain its
// dirty worklist.
func (m *Memo) SetOnAdd(fn func(e *MExpr)) { m.onAdd = fn }

// NumGroups returns the number of groups.
func (m *Memo) NumGroups() int { return len(m.groups) }

// NumExprs returns the total number of memo expressions.
func (m *Memo) NumExprs() int { return m.nexprs }

// Group returns the group with the given id.
func (m *Memo) Group(id GroupID) *Group {
	return m.groups[id-1]
}

// Groups returns all groups in creation order.
func (m *Memo) Groups() []*Group { return m.groups }

// fingerprint hashes an expression's payload and child groups into the
// uint64 interning key.
func (m *Memo) fingerprint(node *logical.Expr, kids []GroupID) uint64 {
	if m.collideAll {
		return 0
	}
	h := fnv64.New()
	node.PayloadFingerprint(&h)
	for _, k := range kids {
		h.Int(int64(k))
	}
	return h.Sum()
}

// lookup returns the interned expression structurally equal to (node, kids),
// or nil. fp must be m.fingerprint(node, kids).
func (m *Memo) lookup(fp uint64, node *logical.Expr, kids []GroupID) *MExpr {
	for e := m.intern[fp]; e != nil; e = e.internNext {
		if kidsEqual(e.Kids, kids) && e.Node.PayloadEqual(node) {
			return e
		}
	}
	return nil
}

func kidsEqual(a, b []GroupID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// payloadOnly strips children from a logical node, keeping arguments. The
// copy is shallow: payload slices are shared with the original, which is safe
// because logical nodes are immutable by convention (nothing in the codebase
// writes to a payload after construction) and a full Clone per substitute
// dominated the old interning profile.
func payloadOnly(node *logical.Expr) *logical.Expr {
	cp := *node
	cp.Children = nil
	return &cp
}

// colSetOf computes the group column set for a node given its kid groups.
func (m *Memo) colSetOf(node *logical.Expr, kids []GroupID) scalar.ColSet {
	kidSet := func(i int) scalar.ColSet { return m.Group(kids[i]).Cols }
	var s scalar.ColSet
	switch node.Op {
	case logical.OpGet:
		return scalar.NewColSet(node.Cols...)
	case logical.OpSelect, logical.OpLimit, logical.OpSort:
		return kidSet(0)
	case logical.OpProject:
		for _, p := range node.Projs {
			s.Add(p.Out)
		}
	case logical.OpJoin, logical.OpLeftJoin:
		return kidSet(0).Union(kidSet(1))
	case logical.OpSemiJoin, logical.OpAntiJoin:
		return kidSet(0)
	case logical.OpGroupBy:
		for _, c := range node.GroupCols {
			s.Add(c)
		}
		for _, a := range node.Aggs {
			s.Add(a.Out)
		}
	case logical.OpUnionAll:
		return scalar.NewColSet(node.OutCols...)
	}
	return s
}

func (m *Memo) newGroup(node *logical.Expr, kids []GroupID) *Group {
	g := &m.grps.Take(1, 4)[0]
	g.ID = GroupID(len(m.groups) + 1)
	g.Cols = m.colSetOf(node, kids)
	g.leaf.Group = g.ID
	m.groups = append(m.groups, g)
	return g
}

// addInterned appends a known-novel expression to its group and the intern
// table. The caller must have established that no structurally equal
// expression exists (via lookup with the same fp).
//
// kids may be the caller's scratch: the expression keeps a copy carved from
// the memo's own storage.
func (m *Memo) addInterned(fp uint64, node *logical.Expr, kids []GroupID, g *Group, createdBy int) *MExpr {
	e := &m.exprs.Take(1, 4)[0]
	own := m.kidIDs.Take(len(kids), 8)
	copy(own, kids)
	*e = MExpr{Node: node, Kids: own, Group: g.ID, Ord: len(g.Exprs), CreatedBy: createdBy}
	g.Exprs = append(g.Exprs, e)
	e.internNext = m.intern[fp]
	m.intern[fp] = e
	m.nexprs++
	if m.onAdd != nil {
		m.onAdd(e)
	}
	return e
}

// Insert interns a complete logical tree, creating groups bottom-up, and
// returns the group holding its root. Structurally identical subtrees share
// groups.
func (m *Memo) Insert(tree *logical.Expr) GroupID {
	var buf [2]GroupID
	kids := kidScratch(&buf, len(tree.Children))
	for i, c := range tree.Children {
		kids[i] = m.Insert(c)
	}
	fp := m.fingerprint(tree, kids)
	if existing := m.lookup(fp, tree, kids); existing != nil {
		return existing.Group
	}
	g := m.newGroup(tree, kids)
	m.addInterned(fp, tree, kids, g, 0)
	return g.ID
}

// kidScratch returns n child-group slots for building an interning key:
// buf, which the caller keeps on its stack, whenever the operator's arity
// allows (it always does for well-formed trees). addInterned copies the slots
// it keeps, so a lookup that finds the expression allocates nothing.
func kidScratch(buf *[2]GroupID, n int) []GroupID {
	if n > len(buf) {
		return make([]GroupID, n)
	}
	return buf[:n]
}

// SetRoot records the root group of the query.
func (m *Memo) SetRoot(g GroupID) { m.Root = g }

// BoundExpr is the currency between the memo and transformation rules: a
// pattern match binds memo expressions into a BoundExpr tree whose leaves are
// group references; a rule's substitute is likewise a BoundExpr tree that the
// memo re-interns.
type BoundExpr struct {
	// Node is nil for a pure group-reference leaf.
	Node *logical.Expr
	Kids []*BoundExpr
	// Group: for a leaf, the referenced group; for a bound (matched)
	// expression, the group the expression lives in. Zero for rule-built
	// substitute nodes that do not exist in the memo yet.
	Group GroupID
	// Src is the memo expression a concrete pattern node bound to; nil for
	// leaves and substitutes. It carries provenance for rule-interaction
	// tracking.
	Src *MExpr
	// owned marks a substitute whose Node is a memo payload node no
	// expression has adopted yet (BoundNew).
	owned bool
}

// GroupRef returns a leaf BoundExpr referencing group g.
func GroupRef(g GroupID) *BoundExpr { return &BoundExpr{Group: g} }

// LeafRef returns the group's own leaf BoundExpr referencing group g. The
// binder uses it on its hot path instead of GroupRef; callers share the
// returned node and must treat it as immutable (all BoundExpr trees are
// read-only after construction).
func (m *Memo) LeafRef(g GroupID) *BoundExpr { return &m.Group(g).leaf }

// binding is one binder node: the BoundExpr, its kid slots (operator arity
// never exceeds 2) and the one-element result slice the binder returns when
// the node is the only binding, all in one piece of storage.
type binding struct {
	b    BoundExpr
	kids [2]*BoundExpr
	self [1]*BoundExpr
}

// NewBinding returns a binding of memo expression e, with len(e.Kids) kid
// slots for the caller to fill, and the one-element slice holding it. Both
// live in the memo's binding storage and stay valid until ReleaseBindings.
func (m *Memo) NewBinding(e *MExpr) (*BoundExpr, []*BoundExpr) {
	if len(e.Kids) > 2 {
		panic("memo: NewBinding with more than 2 kids")
	}
	// 2, 2, 4, 8 … 128 nodes a chunk: most applications bind once, and a
	// memo that is never explored (verify's) binds little else.
	n := &m.bindings.Take(1, 2)[0]
	n.b = BoundExpr{Node: e.Node, Kids: n.kids[:len(e.Kids):len(e.Kids)], Group: e.Group, Src: e}
	n.self[0] = &n.b
	return &n.b, n.self[:]
}

// ReleaseBindings hands every binding NewBinding returned so far, every
// substitute Bound and BoundNew built and all scratch back for reuse. The
// caller must hold none of them past this call: the explorer calls it between
// rule applications, when the substitutes have been interned and only group
// references survive. A caller that never calls it (verify, the reference
// explorer) keeps them all until Reset.
func (m *Memo) ReleaseBindings() {
	if PoisonReleased.Load() {
		m.poisonScratch()
	}
	m.rewindScratch(false)
}

// ScratchExprs, ScratchCols and ScratchProjs return n elements of the memo's
// scratch, and And is scalar.MakeAnd with its node carved there: storage a
// rule builds a substitute's payload in, valid until ReleaseBindings. Only a
// BoundNew payload may point into it, from Filter or On (an And and its
// conjunct list), Projs and GroupCols; an expression interned from it adopts
// heap copies (see Payload), and a duplicate costs no allocation at all.
func (m *Memo) ScratchExprs(n int) []scalar.Expr { return m.conj.Take(n, 8) }

// ScratchCols: see ScratchExprs.
func (m *Memo) ScratchCols(n int) []scalar.ColumnID { return m.cols.Take(n, 8) }

// ScratchProjs: see ScratchExprs.
func (m *Memo) ScratchProjs(n int) []logical.ProjItem { return m.projs.Take(n, 4) }

// And: see ScratchExprs.
func (m *Memo) And(conj []scalar.Expr) scalar.Expr {
	if len(conj) == 1 {
		return conj[0]
	}
	a := &m.ands.Take(1, 2)[0]
	a.Kids = conj
	return a
}

// Payload returns a copy of substitute b's payload that stays valid past
// ReleaseBindings and Reset: the pieces of a BoundNew payload carved from
// scratch are copied to the heap.
func (m *Memo) Payload(b *BoundExpr) logical.Expr {
	node := *b.Node
	if b.owned {
		node.Filter, node.On = m.heapAnd(node.Filter), m.heapAnd(node.On)
		if len(node.Projs) > 0 && m.projs.holds(&node.Projs[0]) {
			node.Projs = slices.Clone(node.Projs)
		}
		if len(node.GroupCols) > 0 && m.cols.holds(&node.GroupCols[0]) {
			node.GroupCols = slices.Clone(node.GroupCols)
		}
	}
	return node
}

// heapAnd returns e, or, for an And from the scratch, an exact-size heap copy
// (plans keep it) that also copies a scratch conjunct list: two conjuncts, the
// common case, take one allocation.
func (m *Memo) heapAnd(e scalar.Expr) scalar.Expr {
	a, ok := e.(*scalar.And)
	if !ok || !m.ands.holds(a) {
		return e
	}
	switch n := len(a.Kids); {
	case n == 0 || !m.conj.holds(&a.Kids[0]):
		return &scalar.And{Kids: a.Kids}
	case n == 2:
		cp := new(struct {
			and  scalar.And
			kids [2]scalar.Expr
		})
		cp.and.Kids = append(cp.kids[:0:2], a.Kids...)
		return &cp.and
	}
	return &scalar.And{Kids: slices.Clone(a.Kids)}
}

// Bound returns a substitute node over kids whose payload is node, a matched
// expression's, shared as it is. Like a binding, the substitute lives in the
// memo's binding storage and is valid until ReleaseBindings.
func (m *Memo) Bound(node *logical.Expr, kids ...*BoundExpr) *BoundExpr {
	if len(kids) > 2 {
		panic("memo: Bound with more than 2 kids")
	}
	n := &m.bindings.Take(1, 2)[0]
	copy(n.kids[:], kids)
	n.b = BoundExpr{Node: node, Kids: n.kids[:len(kids):len(kids)]}
	return &n.b
}

// BoundNew is Bound for a payload the rule has just built: the memo copies it
// into a node of its own, which the expression interned from the substitute
// adopts — or which goes back on the memo's free list, should an equal
// expression exist already.
func (m *Memo) BoundNew(payload logical.Expr, kids ...*BoundExpr) *BoundExpr {
	var node *logical.Expr
	if n := len(m.freeNodes); n > 0 {
		node, m.freeNodes = m.freeNodes[n-1], m.freeNodes[:n-1]
	} else {
		node = &m.nodes.Take(1, 1)[0]
	}
	*node = payload
	b := m.Bound(node, kids...)
	b.owned = true
	return b
}

// internBound returns the expression substitute node b over kids is interned
// as, adding it to group g — a new group when g is nil — if it is new; an
// expression that exists already stays in the group it has (the memo does not
// merge groups; see DESIGN.md). An owned payload node is disowned either way,
// once: adopted by the new expression, its scratch pieces copied to the heap,
// or put on the free list with b pointed at the equal node that was there
// first, so that a subtree two substitutes share resolves to the same
// expression for both.
func (m *Memo) internBound(b *BoundExpr, kids []GroupID, g *Group, createdBy int) *MExpr {
	fp := m.fingerprint(b.Node, kids)
	e := m.lookup(fp, b.Node, kids)
	if e == nil {
		if b.owned {
			*b.Node = m.Payload(b)
		}
		if g == nil {
			g = m.newGroup(b.Node, kids)
		}
		e = m.addInterned(fp, b.Node, kids, g, createdBy)
	} else if b.owned {
		m.freeNodes = append(m.freeNodes, b.Node)
		b.Node = e.Node
	}
	b.owned = false
	return e
}

// NewBound returns a substitute node over kids. A node that carries children
// (a matched original-tree node) has its payload copied with children
// stripped; an already-childless node — the common case, rules building
// fresh payload nodes — is shared as-is, relying on the same immutability
// convention the rest of the memo rests on.
//
// kids are copied into storage co-allocated with the BoundExpr (operator
// arity never exceeds 2), which also lets callers' variadic slices stay on
// their stacks: the parameter never escapes.
func NewBound(node *logical.Expr, kids ...*BoundExpr) *BoundExpr {
	if len(kids) > 2 {
		panic("memo: NewBound with more than 2 kids")
	}
	if node.Children != nil {
		node = payloadOnly(node)
	}
	buf := &struct {
		b    BoundExpr
		kids [2]*BoundExpr
	}{b: BoundExpr{Node: node}}
	copy(buf.kids[:], kids)
	buf.b.Kids = buf.kids[:len(kids):len(kids)]
	return &buf.b
}

// IsLeaf reports whether b is a pure group reference.
func (b *BoundExpr) IsLeaf() bool { return b.Node == nil }

// Cols returns the output column set of the bound expression.
func (m *Memo) Cols(b *BoundExpr) scalar.ColSet {
	if b.IsLeaf() {
		return m.Group(b.Group).Cols
	}
	switch b.Node.Op {
	case logical.OpGet, logical.OpProject, logical.OpGroupBy, logical.OpUnionAll:
		return m.colSetOf(b.Node, nil)
	case logical.OpJoin, logical.OpLeftJoin:
		return m.Cols(b.Kids[0]).Union(m.Cols(b.Kids[1]))
	default:
		return m.Cols(b.Kids[0])
	}
}

// ensureGroup interns a substitute BoundExpr subtree and returns its group.
func (m *Memo) ensureGroup(b *BoundExpr, createdBy int) GroupID {
	if b.IsLeaf() {
		return b.Group
	}
	var buf [2]GroupID
	kids := kidScratch(&buf, len(b.Kids))
	for i, k := range b.Kids {
		kids[i] = m.ensureGroup(k, createdBy)
	}
	return m.internBound(b, kids, nil, createdBy).Group
}

// InsertSubstituteFrom adds the root of a rule's substitute tree to the
// target group (the group of the matched expression), recording the creating
// rule's ID on every newly added expression. It returns true if a new
// expression was added anywhere.
func (m *Memo) InsertSubstituteFrom(b *BoundExpr, target GroupID, createdBy int) bool {
	if b.IsLeaf() {
		// A substitute that is just "the child group" (e.g. eliminating a
		// no-op operator) cannot be expressed without group merging; skip.
		return false
	}
	before := m.NumExprs()
	var buf [2]GroupID
	kids := kidScratch(&buf, len(b.Kids))
	for i, k := range b.Kids {
		kids[i] = m.ensureGroup(k, createdBy)
	}
	m.internBound(b, kids, m.Group(target), createdBy)
	return m.NumExprs() > before
}

// ExtractFirst rebuilds a logical tree from the first (original) expression
// of each group, for debugging and for tests.
func (m *Memo) ExtractFirst(g GroupID) *logical.Expr {
	e := m.Group(g).Exprs[0]
	node := payloadOnly(e.Node)
	node.Children = make([]*logical.Expr, len(e.Kids))
	for i, k := range e.Kids {
		node.Children[i] = m.ExtractFirst(k)
	}
	return node
}

// String renders the memo for debugging.
func (m *Memo) String() string {
	var sb strings.Builder
	for _, g := range m.groups {
		fmt.Fprintf(&sb, "G%d:", g.ID)
		for _, e := range g.Exprs {
			fmt.Fprintf(&sb, " [%s", e.Node.Op)
			for _, k := range e.Kids {
				fmt.Fprintf(&sb, " G%d", k)
			}
			sb.WriteString("]")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
