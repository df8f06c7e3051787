// Package rules implements the optimizer's transformation rules: exploration
// (logical→logical) and implementation (logical→physical) rules, their
// patterns, and the registry the optimizer and the testing framework share.
//
// Per the paper (§3.1), every rule is a triple (Name, Pattern, Substitution):
// the pattern is a necessary condition for the rule to be exercised, and the
// registry exports patterns through an API (including XML) so that the query
// generation module can leverage them.
package rules

import (
	"fmt"
	"sort"

	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/physical"
	"qtrtest/internal/scalar"
)

// ID identifies a rule. IDs are stable across runs: they index experiment
// results and disabled-rule sets.
type ID int

// Kind distinguishes exploration from implementation rules (§2.1).
type Kind int

// Rule kinds.
const (
	KindExploration Kind = iota
	KindImplementation
)

// String returns the kind name.
func (k Kind) String() string {
	if k == KindExploration {
		return "exploration"
	}
	return "implementation"
}

// Context gives rules access to the memo (for group properties) and the
// query metadata (to allocate fresh columns for synthesized operators), and
// carries the scratch one optimization reuses between rule calls. A bare
// &Context{Memo: m} is complete: with nothing released, candidates are simply
// allocated. A Context serves one optimization at a time, on one goroutine;
// what was released during one is reused by the next.
type Context struct {
	Memo *memo.Memo
	// free holds physical candidates handed back through Release; the
	// built-in implementation rules build their next candidate in one of
	// these instead of allocating.
	free []*physical.Expr
	// result backs the one-candidate slice the built-in implementation rules
	// return, subs the one-substitute slice of the exploration rules.
	result [1]*physical.Expr
	subs   [1]*memo.BoundExpr
	// keys is the scratch the join rules' key columns live in (RewindKeys).
	keys memo.Arena[scalar.ColumnID]
}

// RewindKeys makes the key scratch available again: the caller must hold no
// candidate whose keys KeepKeys has not copied out. The optimizer's
// implementor calls it as each costing starts.
func (c *Context) RewindKeys() {
	if memo.PoisonReleased.Load() {
		c.keys.Fill(-7)
	}
	c.keys.Rewind(false)
}

// KeepKeys copies the join keys of every node of plan into one slab of exactly
// their size, so that the plan outlives RewindKeys and pins no scratch.
func (c *Context) KeepKeys(plan *physical.Expr) {
	moveKeys(plan, make([]scalar.ColumnID, 0, numKeys(plan)))
}

func numKeys(e *physical.Expr) int {
	n := len(e.EquiLeft) + len(e.EquiRight)
	for _, k := range e.Children {
		n += numKeys(k)
	}
	return n
}

// moveKeys appends the keys of e and its descendants to slab, pointing them
// there, and returns the longer slab.
func moveKeys(e *physical.Expr, slab []scalar.ColumnID) []scalar.ColumnID {
	if len(e.EquiLeft)+len(e.EquiRight) > 0 {
		at, mid := len(slab), len(slab)+len(e.EquiLeft)
		slab = append(append(slab, e.EquiLeft...), e.EquiRight...)
		e.EquiLeft, e.EquiRight = slab[at:mid:mid], slab[mid:len(slab):len(slab)]
	}
	for _, k := range e.Children {
		slab = moveKeys(k, slab)
	}
	return slab
}

// MD returns the query metadata.
func (c *Context) MD() *logical.Metadata { return c.Memo.MD }

// Release hands a candidate an implementation rule returned back for reuse by
// a later Implement call on this Context. The caller must own the node — hold
// the only reference to it — and must not touch it afterwards: the optimizer's
// implementor releases the candidates that lose a group's costing, never one
// it has published as a group's best plan.
func (c *Context) Release(cand *physical.Expr) { c.free = append(c.free, cand) }

// one returns e as a single-candidate implementation result: almost every
// implementation rule yields exactly one candidate. The candidate is fresh
// and the caller's to mutate (the implementor fills Children/Rows/Cost in
// place): it is built in a released node, every field overwritten, when there
// is one, and allocated otherwise.
func (c *Context) one(e physical.Expr) []*physical.Expr {
	var cand *physical.Expr
	if n := len(c.free); n > 0 {
		cand, c.free = c.free[n-1], c.free[:n-1]
	} else {
		cand = new(physical.Expr)
	}
	*cand = e
	c.result[0] = cand
	return c.result[:]
}

// sub returns b as a single-substitute exploration result, in the Context's
// own slice: almost every exploration rule yields exactly one substitute.
func (c *Context) sub(b *memo.BoundExpr) []*memo.BoundExpr {
	c.subs[0] = b
	return c.subs[:]
}

// Rule is the common surface of all transformation rules.
type Rule interface {
	ID() ID
	Name() string
	Kind() Kind
	// Pattern returns the logical-tree shape that must be present for the
	// rule to be exercised (a necessary, not sufficient, condition).
	Pattern() *Pattern
}

// Producer is implemented by rules that declare the shapes their
// substitution produces. Like the input pattern, a produced pattern is a
// necessary-condition over-approximation: every substitute the rule emits
// matches one of the declared shapes, but a declared shape does not imply
// the rule ever emits it. The static analyzer (internal/rulecheck) builds
// the rule-produces-pattern / rule-consumes-pattern graph from these
// declarations; every built-in exploration rule declares its shapes.
type Producer interface {
	// Produces returns the output shapes, or nil when undeclared.
	Produces() []*Pattern
}

// ExplorationRule transforms logical expressions into equivalent logical
// expressions.
type ExplorationRule interface {
	Rule
	// Apply is the substitution function: given a bound match of Pattern(),
	// it returns zero or more equivalent substitute trees. Returning zero
	// substitutes means a precondition beyond the pattern failed; the rule
	// then counts as not exercised. As with Implement, the slice itself may
	// be the Context's and is valid only until the next Apply call on the
	// same Context.
	Apply(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr
}

// ImplementationRule transforms a logical expression into a physical
// operator choice.
type ImplementationRule interface {
	Rule
	// Implement returns physical payload nodes (Children unset; they
	// correspond 1:1 to e.Kids) or nil if a precondition fails. Every node
	// is fresh and the caller's to mutate or to Release; the slice itself
	// may be the Context's and is valid only until the next Implement call
	// on the same Context. Implement must not allocate columns in ctx.MD():
	// opt.Result.Without costs one memo more than once, and a column made
	// on the way would number the next costing's columns differently.
	Implement(ctx *Context, e *memo.MExpr) []*physical.Expr
}

// info supplies the boilerplate part of a rule.
type info struct {
	id       ID
	name     string
	kind     Kind
	pattern  *Pattern
	produces []*Pattern
}

func (i info) ID() ID               { return i.id }
func (i info) Name() string         { return i.name }
func (i info) Kind() Kind           { return i.kind }
func (i info) Pattern() *Pattern    { return i.pattern }
func (i info) Produces() []*Pattern { return i.produces }
func (i info) String() string       { return fmt.Sprintf("%s(#%d)", i.name, i.id) }

// Set is a set of rule IDs, used for disabled sets and RuleSet(q).
type Set map[ID]bool

// NewSet builds a set from ids.
func NewSet(ids ...ID) Set {
	s := make(Set, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// Contains reports membership; a nil Set contains nothing.
func (s Set) Contains(id ID) bool { return s != nil && s[id] }

// Add inserts id.
func (s Set) Add(id ID) { s[id] = true }

// Sorted returns the ids in ascending order.
func (s Set) Sorted() []ID {
	out := make([]ID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Union returns a new set combining s and o.
func (s Set) Union(o Set) Set {
	out := make(Set, len(s)+len(o))
	for id := range s {
		out[id] = true
	}
	for id := range o {
		out[id] = true
	}
	return out
}

// Registry holds the rule set R = {r1..rn} of the optimizer (§2.2).
type Registry struct {
	all []Rule
	// byID maps an ID to the rule's position in all; pos is the same map as
	// a slice over the IDs below 1<<16 (-1: no such rule), so the optimizer
	// finds a rule's row in its per-rule tables without hashing.
	byID   map[ID]int
	pos    []int32
	byName map[string]Rule
	// expl/impl are the kind-filtered views, cached at construction so the
	// optimizer's hot loops never re-filter or re-allocate them.
	expl []ExplorationRule
	impl []ImplementationRule
	// explByOp/implByOp index rules by pattern root operator, in definition
	// order. ValidatePattern guarantees every pattern root is a concrete
	// operator (never OpAny), so the index is total: a rule appears under
	// exactly one operator, and Bind on any other operator's expressions
	// would return nothing anyway.
	explByOp [logical.OpSort + 1][]ExplorationRule
	implByOp [logical.OpSort + 1][]ImplementationRule
}

// NewRegistry returns a registry with the given rules; it panics on
// duplicate IDs or names and on nil or malformed patterns, which indicate a
// programming error in rule definitions. Validating here means a bad rule
// fails at registry construction rather than later, mid-optimization, when
// the binder first walks its pattern.
func NewRegistry(rs ...Rule) *Registry {
	reg := &Registry{byID: make(map[ID]int), byName: make(map[string]Rule)}
	for _, r := range rs {
		id := r.ID()
		if _, dup := reg.byID[id]; dup {
			panic(fmt.Sprintf("rules: duplicate rule id %d", id))
		}
		if _, dup := reg.byName[r.Name()]; dup {
			panic(fmt.Sprintf("rules: duplicate rule name %q", r.Name()))
		}
		if err := ValidatePattern(r.Pattern()); err != nil {
			panic(fmt.Sprintf("rules: rule %s(#%d): %v", r.Name(), id, err))
		}
		if id >= 0 && id < 1<<16 {
			for len(reg.pos) <= int(id) {
				reg.pos = append(reg.pos, -1)
			}
			reg.pos[id] = int32(len(reg.all))
		}
		reg.byID[id] = len(reg.all)
		reg.all = append(reg.all, r)
		reg.byName[r.Name()] = r
		op := r.Pattern().Op
		if er, ok := r.(ExplorationRule); ok {
			reg.expl = append(reg.expl, er)
			reg.explByOp[op] = append(reg.explByOp[op], er)
		}
		if ir, ok := r.(ImplementationRule); ok {
			reg.impl = append(reg.impl, ir)
			reg.implByOp[op] = append(reg.implByOp[op], ir)
		}
	}
	return reg
}

// All returns every rule in definition order.
func (r *Registry) All() []Rule { return r.all }

// Exploration returns the exploration rules in definition order. Callers
// must not mutate the returned slice.
func (r *Registry) Exploration() []ExplorationRule { return r.expl }

// Implementation returns the implementation rules in definition order.
// Callers must not mutate the returned slice.
func (r *Registry) Implementation() []ImplementationRule { return r.impl }

// ExplorationFor returns the exploration rules whose pattern root is op, in
// definition order. Because pattern roots are always concrete operators,
// iterating ExplorationFor(e.Op()) visits exactly the rules that could bind
// to e — the rules it omits would all fail the binder's root operator check.
func (r *Registry) ExplorationFor(op logical.Op) []ExplorationRule { return r.explByOp[op] }

// ImplementationFor returns the implementation rules whose pattern root is
// op, in definition order.
func (r *Registry) ImplementationFor(op logical.Op) []ImplementationRule { return r.implByOp[op] }

// Pos returns the position of rule id in All, or -1 when there is no such
// rule: the row the optimizer keeps for the rule in its per-optimization
// tables.
func (r *Registry) Pos(id ID) int {
	if uint(id) < uint(len(r.pos)) {
		return int(r.pos[id])
	}
	if p, ok := r.byID[id]; ok {
		return p
	}
	return -1
}

// ByID returns the rule with the given id, or an error.
func (r *Registry) ByID(id ID) (Rule, error) {
	p, ok := r.byID[id]
	if !ok {
		return nil, fmt.Errorf("rules: no rule with id %d", id)
	}
	return r.all[p], nil
}

// ByName returns the rule with the given name, or an error.
func (r *Registry) ByName(name string) (Rule, error) {
	rule, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("rules: no rule named %q", name)
	}
	return rule, nil
}
