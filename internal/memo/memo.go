// Package memo implements the optimizer's memo: a forest of groups of
// logically equivalent expressions, as in Volcano/Cascades [12][13]. The
// memo provides interning (structural deduplication) of expressions, which
// is what keeps exploration to a fixpoint finite.
package memo

import (
	"fmt"
	"strings"

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

	// Chunked storage, private to this memo and never pooled across memos, so
	// everything carved from it stays valid for as long as the memo (or any
	// pointer into it) is reachable. Each field is the unused tail of the
	// current chunk; a chunk that runs out is replaced, never grown, so
	// pointers into it are stable.
	exprs  []MExpr
	grps   []Group
	kidIDs []GroupID
	// bindings holds the binder's nodes. Unlike the rest it is recycled:
	// ReleaseBindings rewinds it once a rule application is over.
	bindings     [][]binding
	bindingChunk int // index into bindings of the chunk being carved
	bindingNext  int // next unused node in that chunk
}

// chunkLen sizes the next chunk of a storage class that has handed out used
// elements so far: chunks double with use, so a three-expression memo costs a
// few hundred bytes and a thousand-expression one a handful of allocations.
func chunkLen(used int) int {
	switch {
	case used < 4:
		return 4
	case used > 128:
		return 128
	}
	return used
}

// New returns an empty memo over the given metadata.
func New(md *logical.Metadata) *Memo {
	return &Memo{
		MD:     md,
		groups: make([]*Group, 0, 32),
		intern: make(map[uint64]*MExpr, 64),
	}
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
	if len(m.grps) == 0 {
		m.grps = make([]Group, chunkLen(len(m.groups)))
	}
	g := &m.grps[0]
	m.grps = m.grps[1:]
	g.ID = GroupID(len(m.groups) + 1)
	g.Cols = m.colSetOf(node, kids)
	g.leaf.Group = g.ID
	m.groups = append(m.groups, g)
	return g
}

// addExpr places (node, kids) in group g, returning the expression and
// whether it was newly added. If the identical expression already exists in a
// DIFFERENT group, nothing is added (the memo does not merge groups; see
// DESIGN.md) and added=false.
func (m *Memo) addExpr(node *logical.Expr, kids []GroupID, g *Group, createdBy int) (*MExpr, bool) {
	fp := m.fingerprint(node, kids)
	if existing := m.lookup(fp, node, kids); existing != nil {
		return existing, false
	}
	return m.addInterned(fp, node, kids, g, createdBy), true
}

// addInterned appends a known-novel expression to its group and the intern
// table. The caller must have established that no structurally equal
// expression exists (via lookup with the same fp).
//
// kids may be the caller's scratch: the expression keeps a copy carved from
// the memo's own storage.
func (m *Memo) addInterned(fp uint64, node *logical.Expr, kids []GroupID, g *Group, createdBy int) *MExpr {
	if len(m.exprs) == 0 {
		m.exprs = make([]MExpr, chunkLen(m.nexprs))
	}
	e := &m.exprs[0]
	m.exprs = m.exprs[1:]
	if len(m.kidIDs) < len(kids) {
		m.kidIDs = make([]GroupID, 2*chunkLen(m.nexprs)+len(kids))
	}
	own := m.kidIDs[:len(kids):len(kids)]
	m.kidIDs = m.kidIDs[len(kids):]
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
	if m.bindingChunk == len(m.bindings) {
		// 2, 8, 32, then 128 nodes a chunk: most applications bind once,
		// and a memo that is never explored (verify's) binds little else.
		m.bindings = append(m.bindings, make([]binding, 2<<min(2*len(m.bindings), 6)))
	}
	chunk := m.bindings[m.bindingChunk]
	n := &chunk[m.bindingNext]
	if m.bindingNext++; m.bindingNext == len(chunk) {
		m.bindingChunk, m.bindingNext = m.bindingChunk+1, 0
	}
	n.b = BoundExpr{Node: e.Node, Kids: n.kids[:len(e.Kids):len(e.Kids)], Group: e.Group, Src: e}
	n.self[0] = &n.b
	return &n.b, n.self[:]
}

// ReleaseBindings hands every binding NewBinding returned so far back for
// reuse. The caller must hold no binding, and no substitute built over one,
// past this call: the explorer calls it between rule applications, when the
// substitutes have been interned and only group references survive.
func (m *Memo) ReleaseBindings() { m.bindingChunk, m.bindingNext = 0, 0 }

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
	fp := m.fingerprint(b.Node, kids)
	if existing := m.lookup(fp, b.Node, kids); existing != nil {
		return existing.Group
	}
	g := m.newGroup(b.Node, kids)
	m.addInterned(fp, b.Node, kids, g, createdBy)
	return g.ID
}

// InsertSubstitute adds the root of a rule's substitute tree to the target
// group (the group of the matched expression). It returns true if a new
// expression was added anywhere.
func (m *Memo) InsertSubstitute(b *BoundExpr, target GroupID) bool {
	return m.InsertSubstituteFrom(b, target, 0)
}

// InsertSubstituteFrom is InsertSubstitute recording the creating rule's ID
// on every newly added expression.
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
	m.addExpr(b.Node, kids, m.Group(target), createdBy)
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
