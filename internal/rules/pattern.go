package rules

import (
	"fmt"
	"strings"

	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
)

// Pattern describes a logical-tree shape: concrete operators that must be
// present plus generic placeholders (logical.OpAny — the circles in the
// paper's Figure 3) that match any operator subtree.
type Pattern struct {
	Op       logical.Op
	Children []*Pattern
}

// Any returns a generic-operator placeholder.
func Any() *Pattern { return &Pattern{Op: logical.OpAny} }

// P builds a pattern node.
func P(op logical.Op, children ...*Pattern) *Pattern {
	return &Pattern{Op: op, Children: children}
}

// IsGeneric reports whether the node is a generic placeholder.
func (p *Pattern) IsGeneric() bool { return p.Op == logical.OpAny }

// CountOps returns the number of nodes in the pattern.
func (p *Pattern) CountOps() int {
	n := 1
	for _, c := range p.Children {
		n += c.CountOps()
	}
	return n
}

// Clone deep-copies the pattern.
func (p *Pattern) Clone() *Pattern {
	out := &Pattern{Op: p.Op, Children: make([]*Pattern, len(p.Children))}
	for i, c := range p.Children {
		out.Children[i] = c.Clone()
	}
	return out
}

// String renders the pattern in compact functional form, e.g.
// "Join(GroupBy(*), *)".
func (p *Pattern) String() string {
	if p.IsGeneric() && len(p.Children) == 0 {
		return "*"
	}
	var sb strings.Builder
	sb.WriteString(p.Op.String())
	if len(p.Children) > 0 {
		sb.WriteString("(")
		for i, c := range p.Children {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.String())
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// Generics returns pointers to the generic placeholder slots of the pattern,
// in pre-order. Pattern composition for rule pairs (§3.2) substitutes one
// pattern into these slots.
func (p *Pattern) Generics() []*Pattern {
	var out []*Pattern
	var walk func(x *Pattern)
	walk = func(x *Pattern) {
		if x.IsGeneric() {
			out = append(out, x)
			return
		}
		for _, c := range x.Children {
			walk(c)
		}
	}
	walk(p)
	return out
}

// MatchesTree reports whether the logical tree contains, at its root, the
// pattern shape. Generic placeholders match any subtree.
func (p *Pattern) MatchesTree(e *logical.Expr) bool {
	if p.IsGeneric() {
		return true
	}
	if e.Op != p.Op || len(p.Children) > len(e.Children) {
		return false
	}
	for i, pc := range p.Children {
		if !pc.MatchesTree(e.Children[i]) {
			return false
		}
	}
	return true
}

// ContainedIn reports whether any node of the tree matches the pattern.
func (p *Pattern) ContainedIn(e *logical.Expr) bool {
	found := false
	e.Walk(func(x *logical.Expr) {
		if !found && p.MatchesTree(x) {
			found = true
		}
	})
	return found
}

// ValidatePattern checks that a pattern is well-formed for this engine:
// non-nil, no nil children, every operator known, generic placeholders are
// leaves, the root is concrete, and every concrete node carries exactly its
// operator's arity in children. The arity requirement is what the binder
// enforces (bindExpr rejects any child-count mismatch), so an under- or
// over-specified pattern is not "looser" — it can never bind at all.
func ValidatePattern(p *Pattern) error {
	if p == nil {
		return fmt.Errorf("nil pattern")
	}
	if p.IsGeneric() {
		return fmt.Errorf("pattern root is a generic placeholder (matches nothing bindable)")
	}
	var walk func(x *Pattern) error
	walk = func(x *Pattern) error {
		if x == nil {
			return fmt.Errorf("nil pattern node")
		}
		if x.Op < logical.OpAny || x.Op > logical.OpSort {
			return fmt.Errorf("unknown operator %s in pattern", x.Op)
		}
		if x.IsGeneric() {
			if len(x.Children) != 0 {
				return fmt.Errorf("generic placeholder has %d children (must be a leaf)", len(x.Children))
			}
			return nil
		}
		if got, want := len(x.Children), x.Op.Arity(); got != want {
			return fmt.Errorf("operator %s has %d pattern children, arity is %d", x.Op, got, want)
		}
		for _, c := range x.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(p)
}

// Unifies reports whether two patterns can describe the same tree: generic
// placeholders unify with anything, concrete nodes unify when the operators
// match and the children unify pairwise. Child lists of different lengths
// unify on the common prefix (the shorter side leaves the rest
// unconstrained), so under-specified patterns err toward unifying.
func (p *Pattern) Unifies(q *Pattern) bool {
	if p == nil || q == nil {
		return true
	}
	if p.IsGeneric() || q.IsGeneric() {
		return true
	}
	if p.Op != q.Op {
		return false
	}
	n := len(p.Children)
	if len(q.Children) < n {
		n = len(q.Children)
	}
	for i := 0; i < n; i++ {
		if !p.Children[i].Unifies(q.Children[i]) {
			return false
		}
	}
	return true
}

// Nodes returns every node of the pattern in pre-order.
func (p *Pattern) Nodes() []*Pattern {
	var out []*Pattern
	var walk func(x *Pattern)
	walk = func(x *Pattern) {
		out = append(out, x)
		for _, c := range x.Children {
			walk(c)
		}
	}
	walk(p)
	return out
}

// Overlaps reports whether some subtree of p and some subtree of q unify:
// a single logical tree can then satisfy both patterns on overlapping
// nodes. This is the static core of pattern composition (§3.2) — it
// over-approximates "rule q can be exercised on an expression shaped like
// p": if the substitution of one rule creates a tree matching p, a rule
// whose pattern is q can bind somewhere on it only if Overlaps holds.
func (p *Pattern) Overlaps(q *Pattern) bool {
	for _, x := range p.Nodes() {
		if x.IsGeneric() {
			continue
		}
		for _, y := range q.Nodes() {
			if y.IsGeneric() {
				continue
			}
			if x.Unifies(y) {
				return true
			}
		}
	}
	return false
}

// maxBindings caps the number of bindings enumerated per (rule, expression)
// pair; beyond this the extra bindings add no coverage and only cost time.
const maxBindings = 16

// Bind enumerates bindings of the pattern rooted at memo expression e. A
// binding is a BoundExpr tree mirroring the pattern: concrete pattern nodes
// bind to specific memo expressions and generic placeholders become group
// reference leaves. The bindings live in the memo's binding storage: they
// stay valid until the memo's ReleaseBindings, which only a caller that is
// done with them (the optimizer's explorer, between rule applications) calls.
func Bind(m *memo.Memo, e *memo.MExpr, p *Pattern) []*memo.BoundExpr {
	return bindExpr(m, e, p, maxBindings)
}

func bindExpr(m *memo.Memo, e *memo.MExpr, p *Pattern, limit int) []*memo.BoundExpr {
	if limit <= 0 {
		return nil
	}
	if p.IsGeneric() {
		return []*memo.BoundExpr{m.LeafRef(e.Group)}
	}
	if e.Op() != p.Op || len(p.Children) != len(e.Kids) {
		return nil
	}
	// Enumerate bindings per child. Generic placeholders always bind exactly
	// one (cached) group-reference leaf, and concrete children usually bind a
	// single expression, so the overwhelmingly common case is one binding per
	// child: build that single result directly and skip the cartesian
	// product. Operator arity is at most 2, so perChild lives on the stack.
	var pcbuf [2][]*memo.BoundExpr
	perChild := pcbuf[:len(p.Children)]
	single := true
	for i, pc := range p.Children {
		if pc.IsGeneric() {
			continue // marked by perChild[i] == nil
		}
		perChild[i] = bindGroup(m, e.Kids[i], pc, limit)
		if len(perChild[i]) == 0 {
			return nil
		}
		if len(perChild[i]) > 1 {
			single = false
		}
	}
	if single {
		b, only := m.NewBinding(e)
		for i, opts := range perChild {
			if opts == nil {
				b.Kids[i] = m.LeafRef(e.Kids[i])
			} else {
				b.Kids[i] = opts[0]
			}
		}
		return only
	}
	// Multi-binding case: enumerate the cartesian product lexicographically
	// (first child most significant — the same order the old level-wise
	// product produced) and stop at limit. Since every child contributes at
	// least one option, the first `limit` products only ever draw from the
	// first `limit` options of each child, so truncating here is equivalent
	// to the old per-level truncation.
	for i, opts := range perChild {
		if opts == nil {
			perChild[i] = []*memo.BoundExpr{m.LeafRef(e.Kids[i])}
		}
	}
	if len(perChild) == 1 {
		out := make([]*memo.BoundExpr, 0, min(len(perChild[0]), limit))
		for _, a := range perChild[0] {
			if len(out) >= limit {
				break
			}
			nb, _ := m.NewBinding(e)
			nb.Kids[0] = a
			out = append(out, nb)
		}
		return out
	}
	out := make([]*memo.BoundExpr, 0, min(len(perChild[0])*len(perChild[1]), limit))
	for _, a := range perChild[0] {
		if len(out) >= limit {
			break
		}
		for _, b := range perChild[1] {
			if len(out) >= limit {
				break
			}
			nb, _ := m.NewBinding(e)
			nb.Kids[0], nb.Kids[1] = a, b
			out = append(out, nb)
		}
	}
	return out
}

func bindGroup(m *memo.Memo, g memo.GroupID, p *Pattern, limit int) []*memo.BoundExpr {
	if p.IsGeneric() {
		return []*memo.BoundExpr{m.LeafRef(g)}
	}
	var out []*memo.BoundExpr
	for _, e := range m.Group(g).Exprs {
		if len(out) >= limit {
			break
		}
		// The first expression that binds lends its result slice; most
		// groups hold exactly one expression of the operator a pattern asks
		// for, so the append (which copies: a lent slice has no spare
		// capacity this function may write into) is the exception.
		if binds := bindExpr(m, e, p, limit-len(out)); out == nil {
			out = binds[:len(binds):len(binds)]
		} else {
			out = append(out, binds...)
		}
	}
	return out
}
