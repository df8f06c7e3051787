// Package opt implements the transformation-rule-based query optimizer: a
// top-down memo optimizer in the style of Volcano/Cascades [12][13], with the
// two extensions the paper's testing framework requires (§2.3):
//
//   - RuleSet tracking: every optimization records which transformation
//     rules were exercised, exposed as Result.RuleSet.
//   - Rule disabling: Options.Disabled optimizes the query as if the given
//     rules did not exist, yielding Plan(q, ¬R).
package opt

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"qtrtest/internal/catalog"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/physical"
	"qtrtest/internal/rules"
)

// Limits on exploration, to bound optimization of adversarial queries. They
// are generous relative to the query sizes the framework generates.
const (
	defaultMaxExprs  = 1200
	defaultMaxPasses = 12
)

// Options configures one optimization call.
type Options struct {
	// Disabled rules are skipped entirely: their patterns are never matched
	// and their substitutes never generated (Plan(q, ¬R), §2.2).
	Disabled rules.Set
	// MaxExprs caps total memo expressions (0 = default).
	MaxExprs int
	// MaxPasses caps exploration fixpoint passes (0 = default).
	MaxPasses int
	// DisableHistograms makes cardinality estimation fall back to
	// distinct-count heuristics, for estimation-quality ablations.
	DisableHistograms bool
	// onRelease, when non-nil, is handed every losing physical candidate just
	// before the implementor releases it for reuse. Unexported: the recycling
	// test poisons released nodes through it.
	onRelease func(*physical.Expr)
	// exploreOverride, when non-nil, replaces the dirty-queue explorer. It is
	// unexported and only settable from within this package: the differential
	// test uses it to run the reference pass-based explorer against the same
	// memo and compare outcomes.
	exploreOverride func(o *Optimizer, ctx *rules.Context, tab *ruleTab, maxExprs, maxPasses int)
	// onFirstFire, when non-nil, is told the first time a disabled rule's
	// pattern binds — where the full exploration would have fired it, and so
	// the point up to which Plan(q,¬R) repeats Plan(q) — and how many
	// expressions the memo held then. Unexported and nil in production:
	// TestFirstFirePrefix measures with it what forking an exploration there
	// could save (ROADMAP item 5(c)). Until the first hit it costs one extra
	// Bind per disabled-rule attempt.
	onFirstFire func(r rules.ID, exprs int)
}

// Result is the outcome of optimizing one query, or, unfinished, of Explore.
type Result struct {
	// Plan is the lowest-cost physical plan found; nil until Finish.
	Plan *physical.Expr
	// Cost is the optimizer-estimated cost of Plan.
	Cost float64
	// RuleSet is the set of rules exercised during this optimization
	// (RuleSet(q) in the paper, §2.2).
	RuleSet rules.Set
	// Interactions records observed rule interactions of the kind §7
	// describes: a pair (r1, r2) is present when rule r2 was exercised on
	// an expression that rule r1's substitution created.
	Interactions map[[2]rules.ID]bool
	// Memo is the final memo, exposed for inspection and tests. It is part of
	// the optimization's working set: valid until Release, nil afterwards.
	Memo *memo.Memo
	// scratch is that working set, until it is released.
	scratch *scratch
	paused  bool // the exploration has more to do
	// tree, md and opts are what Optimize was called with, kept for Without.
	tree *logical.Expr
	md   *logical.Metadata
	opts Options
}

// Release hands the optimization's working set — the memo and everything
// else Optimize built that is not part of the result — back to the Optimizer
// for a later Optimize call to run in. Plan, Cost, RuleSet and Interactions
// stay valid; Memo becomes nil, and a memo, group or expression read from it
// earlier must not be touched again. Releasing is optional (a Result that is
// never released leaves its working set to the collector), a second Release
// is a no-op, and the Result's one owner calls it: it is not safe to call
// concurrently with itself.
func (r *Result) Release() {
	s := r.scratch
	if s == nil {
		return
	}
	r.scratch, r.Memo = nil, nil
	s.o.pool(s)
}

// Without returns Plan(q,¬id) — Optimize's answer for the same query and
// options with rule id disabled too — or ErrNoPlan. Like Release it is for the
// Result's one owner, and an error after it; the plan survives Release.
//
// Exploration consults exploration rules only, so for any other rule the memo
// of Plan(q,¬id) is the one held here and only the costing, a deterministic
// scan, is repeated. A rule that won no group is not even re-costed: without
// a loser a first-strict-minimum scan keeps its winner and cost, group by
// group from the leaves up, and a group only id implements has id as winner,
// so the answer is Plan itself. An exploration rule changes the memo: that is
// a fresh Optimize in a working set of its own.
func (r *Result) Without(id rules.ID) (*physical.Expr, error) {
	s := r.scratch
	if s == nil {
		return nil, errors.New("opt: Without on a released Result")
	}
	if r.Plan == nil {
		return nil, errors.New("opt: Without before Finish")
	}
	rule, _ := s.o.reg.ByID(id) // nil: no such rule explores or wins anything
	_, explores := rule.(rules.ExplorationRule)
	if !explores && !slices.Contains(s.imp.wonBy, id) {
		return r.Plan, nil
	}
	opts := r.opts
	opts.Disabled = opts.Disabled.Union(rules.NewSet(id))
	if explores {
		res, err := s.o.Optimize(r.tree, r.md, opts)
		if err != nil {
			return nil, err
		}
		res.Release()
		return res.Plan, nil
	}
	if onWork != nil {
		onWork(false, 0)
	}
	imp := s.imp // its tables are the base costing's, done with and large enough
	imp.wonBy = nil
	s.tab.disable(opts.Disabled)
	if plan := imp.cost(); plan != nil {
		return plan, nil
	}
	return nil, ErrNoPlan
}

// onWork, when non-nil, is told of every exploration (true) when it ends or
// pauses, with the memo expressions it has built, and of every re-costing of
// a held memo (false, 0): TestFuzzStarExplorationBudget counts with it. A
// package variable, nil in production, because campaigns build their own
// Optimizer.
var onWork func(explored bool, exprs int)

// scratch is the working set of one optimization. An Optimizer keeps the
// released ones in a sync.Pool — not a free list of its own, so the collector
// can still take an idle one back — and Optimize resets one rather than
// building the memo, the rule context, the explorer's index and worklists,
// the stats cache and the implementor's tables afresh: after a few calls an
// optimization allocates little besides what it returns.
type scratch struct {
	o    *Optimizer // whose pool the scratch belongs to
	memo memo.Memo
	// ctx survives from call to call so that its free list of released
	// candidates does.
	ctx rules.Context
	tab ruleTab
	ex  explorer
	// onAdd is ex.onAdd, bound once.
	onAdd func(*memo.MExpr)
	sb    statsBuilder
	imp   implementor
}

// pool puts a scratch no Result refers to any more back in the pool.
func (o *Optimizer) pool(s *scratch) {
	if o.onPool != nil {
		o.onPool(s)
	}
	o.scratch.Put(s)
}

// Optimizer optimizes logical trees against a catalog using a rule registry.
//
// An Optimizer is safe for concurrent use: the registry and catalog are
// read-only after construction, its only mutable state is a sync.Pool of
// working sets (scratch) of which every Optimize call takes one for itself —
// so memo, stats cache and candidate free list are private to the call — and
// the query metadata is cloned per call so rules that synthesize columns
// never mutate shared state. The parallel campaign engine relies on this to
// fan optimizations out over a worker pool. An Optimizer must not be copied
// after first use.
type Optimizer struct {
	reg     *rules.Registry
	cat     *catalog.Catalog
	scratch sync.Pool // of *scratch
	// onPool, when non-nil, sees every scratch on its way back to the pool:
	// the release tests poison it, the generation leak test counts.
	onPool func(*scratch)
}

// New returns an optimizer over the given rules and test database.
func New(reg *rules.Registry, cat *catalog.Catalog) *Optimizer {
	return &Optimizer{reg: reg, cat: cat}
}

// Registry returns the rule registry.
func (o *Optimizer) Registry() *rules.Registry { return o.reg }

// Catalog returns the catalog.
func (o *Optimizer) Catalog() *catalog.Catalog { return o.cat }

// ErrNoPlan is returned when no physical plan exists for the query, which
// happens when the implementation rules an operator needs are all disabled.
var ErrNoPlan = errors.New("opt: no physical plan for query (implementation rules disabled?)")

// Optimize explores the query's plan space and returns the best plan found,
// the rules exercised, and the estimated cost: Explore, then Finish.
func (o *Optimizer) Optimize(tree *logical.Expr, md *logical.Metadata, opts Options) (*Result, error) {
	r, err := o.explore(tree, md, opts, nil)
	if err == nil {
		err = r.Finish()
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Explore is Optimize paused once every rule of stop has been exercised: the
// Result is unfinished (Plan nil, RuleSet and Interactions as far as they go),
// and Finish makes it what Optimize returns. An exploration rule is in
// RuleSet(q) from its first firing on; a stop rule only costing exercises
// makes Explore finish.
func (o *Optimizer) Explore(tree *logical.Expr, md *logical.Metadata, opts Options, stop ...rules.ID) (*Result, error) {
	for _, id := range stop {
		rule, _ := o.reg.ByID(id)
		if _, ok := rule.(rules.ExplorationRule); !ok {
			return o.Optimize(tree, md, opts)
		}
	}
	r, err := o.explore(tree, md, opts, stop)
	if err != nil {
		return nil, err
	}
	r.RuleSet, r.Interactions = r.scratch.tab.ruleSet(), r.scratch.tab.interactions()
	return r, nil
}

// explore takes a scratch and explores the query in it, until the rules of
// stop have all fired or the exploration is over.
func (o *Optimizer) explore(tree *logical.Expr, md *logical.Metadata, opts Options, stop []rules.ID) (*Result, error) {
	if tree == nil {
		return nil, errors.New("opt: nil query tree")
	}
	maxExprs := opts.MaxExprs
	if maxExprs <= 0 {
		maxExprs = defaultMaxExprs
	}
	maxPasses := opts.MaxPasses
	if maxPasses <= 0 {
		maxPasses = defaultMaxPasses
	}

	s, _ := o.scratch.Get().(*scratch)
	if s == nil {
		s = &scratch{o: o}
		s.ctx.Memo = &s.memo
		s.onAdd = s.ex.onAdd
	}
	m, ctx := &s.memo, &s.ctx
	// Rules may allocate fresh columns while exploring; working on a private
	// copy-on-write clone keeps concurrent optimizations of the same query
	// race-free and makes the ColumnIDs they allocate independent of
	// scheduling, without paying for a column-table copy on the (common)
	// optimizations that never synthesize a column.
	m.Reset(md.CowClone())

	s.tab.reset(o.reg, opts.Disabled)
	r := &Result{Memo: m, scratch: s, tree: tree, md: md, opts: opts}
	if opts.exploreOverride != nil {
		m.SetRoot(m.Insert(tree))
		opts.exploreOverride(o, ctx, &s.tab, maxExprs, maxPasses)
	} else {
		// The explorer's memo hook must be live before the query tree is
		// interned so the initial expressions seed its worklist.
		s.ex.reset(o, ctx, &s.tab, maxExprs, maxPasses, stop)
		s.ex.onFirstFire = opts.onFirstFire
		m.SetOnAdd(s.onAdd)
		m.SetRoot(m.Insert(tree))
		r.paused = s.ex.run()
	}
	if onWork != nil {
		onWork(true, m.NumExprs())
	}
	return r, nil
}

// Finish resumes a paused exploration, runs it to its end and costs the memo,
// or releases the Result and returns ErrNoPlan. For the Result's one owner; a
// no-op once finished, an error once released.
func (r *Result) Finish() error {
	if r.Plan != nil {
		return nil
	}
	s := r.scratch
	if s == nil {
		return errors.New("opt: Finish on a released Result")
	}
	if r.paused {
		r.paused = false
		s.memo.SetOnAdd(s.onAdd)
		s.ex.run()
	}
	s.sb.reset(&s.memo, r.opts.DisableHistograms)
	s.imp = implementor{
		o: s.o, ctx: &s.ctx, sb: &s.sb, tab: &s.tab,
		best: s.imp.best, winner: s.imp.winner, done: s.imp.done, visiting: s.imp.visiting,
		wonBy:     resized(s.imp.wonBy, s.memo.NumGroups()),
		onRelease: r.opts.onRelease,
	}
	plan := s.imp.cost()
	if plan == nil {
		r.Release()
		return ErrNoPlan
	}
	r.Plan, r.Cost, r.RuleSet, r.Interactions = plan, plan.Cost, s.tab.ruleSet(), s.tab.interactions()
	return nil
}

// resized returns s with n zero elements, reusing its backing array when that
// is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// explorer runs exploration rules to a fixpoint (or the limits) using a
// dirty worklist instead of whole-memo fixpoint passes; it can pause between
// two memo expressions and resume there.
//
// The reference semantics (kept runnable in explore_reference_test.go) scan
// the memo in (group, ord) order once per pass, re-binding an expression only
// when the total size of its child groups — its "kid version" — changed since
// its last visit. The worklist reproduces those semantics exactly, without
// the O(memo) rescans:
//
//   - An expression's bindings depend only on its payload and the contents of
//     its child groups, so it needs re-binding exactly when a child group
//     gains an expression. The memo's onAdd hook fires once per added
//     expression; dirtying the registered parents of the grown group is
//     therefore equivalent to the kid-version check.
//   - The current round's queue is a min-heap on (group, ord) — the scan
//     order of a pass. An expression dirtied at a key after the one being
//     processed would have been reached later in the same scan, so it joins
//     the current round; one dirtied at or before the current key was already
//     passed over and waits for the next round.
//   - Rounds correspond to passes: a round that adds nothing leaves the next
//     queue empty, exactly as a pass with changed=false terminates the loop,
//     and maxPasses bounds the number of rounds.
//
// Rules are drawn from the registry's per-operator index; the omitted rules
// are precisely those whose pattern root differs from the expression's
// operator, for which Bind returns no matches (and fires no side effects).
type explorer struct {
	o         *Optimizer
	ctx       *rules.Context
	tab       *ruleTab
	maxExprs  int
	maxPasses int
	round     int        // rounds begun
	stop      []rules.ID // rules whose firing pauses the exploration, until it does

	// parents registers, for each group (index = GroupID-1), the memo
	// expressions that have it as a child; they are the expressions
	// invalidated when the group grows. Grown on demand as groups appear.
	parents [][]*memo.MExpr
	// cur and next are the worklists of this round and the next; membership
	// is marked on the expression itself (inCur / inNext in MExpr.Queued).
	cur  exprHeap
	next []*memo.MExpr
	// processing is the expression whose rules are currently running; nil
	// between rounds and during the initial tree interning, when every new
	// expression seeds the first round.
	processing *memo.MExpr
	// onFirstFire is Options.onFirstFire until it has been called once.
	onFirstFire func(r rules.ID, exprs int)
}

// reset readies the explorer for one exploration, keeping the storage of the
// last one: the parents index (its per-group lists emptied, not dropped) and
// the worklists, which an exploration cut short by maxExprs leaves filled.
func (ex *explorer) reset(o *Optimizer, ctx *rules.Context, tab *ruleTab, maxExprs, maxPasses int, stop []rules.ID) {
	for i, p := range ex.parents {
		ex.parents[i] = p[:0]
	}
	*ex = explorer{
		o: o, ctx: ctx, tab: tab,
		maxExprs: maxExprs, maxPasses: maxPasses, stop: stop,
		parents: ex.parents[:0], cur: ex.cur[:0], next: ex.next[:0],
	}
}

// onAdd observes every expression the memo interns: it indexes the new
// expression as a parent of its child groups, then marks dirty both the
// expression itself (it has never been bound) and the registered parents of
// its group (their kid version just changed).
func (ex *explorer) onAdd(e *memo.MExpr) {
	for _, k := range e.Kids {
		ex.grow(k)
		p := ex.parents[k-1]
		if cap(p) == 0 {
			p = make([]*memo.MExpr, 0, 4)
		}
		ex.parents[k-1] = append(p, e)
	}
	ex.dirty(e)
	ex.grow(e.Group)
	for _, p := range ex.parents[e.Group-1] {
		ex.dirty(p)
	}
}

// grow extends the parents index to cover group g, over the emptied lists an
// earlier exploration left in its backing array where there are any.
func (ex *explorer) grow(g memo.GroupID) {
	if n := min(int(g), cap(ex.parents)); n > len(ex.parents) {
		ex.parents = ex.parents[:n]
	}
	for len(ex.parents) < int(g) {
		ex.parents = append(ex.parents, nil)
	}
}

// Worklist-membership bits the explorer keeps in MExpr.Queued.
const (
	inCur uint8 = 1 << iota
	inNext
)

// dirty queues e for (re-)binding: into the current round if its scan
// position is still ahead of the expression being processed, else into the
// next round.
func (ex *explorer) dirty(e *memo.MExpr) {
	if ex.processing != nil && exprLess(ex.processing, e) {
		if e.Queued&inCur == 0 {
			e.Queued |= inCur
			ex.cur.push(e)
		}
		return
	}
	if e.Queued&inNext == 0 {
		e.Queued |= inNext
		ex.next = append(ex.next, e)
	}
}

// run drains rounds of the worklist until a round adds nothing, or a cap is
// reached, or — a pause, resumed by the next run — the stop rules have fired.
func (ex *explorer) run() (paused bool) {
	defer ex.ctx.Memo.SetOnAdd(nil)
	m, reg := ex.ctx.Memo, ex.o.reg
	for len(ex.cur) > 0 || ex.round < ex.maxPasses && len(ex.next) > 0 {
		if len(ex.cur) == 0 {
			ex.round++
			// Swap the queues, recycling the drained round's storage. It left
			// no inCur mark behind (pop clears it), so moving the next round's
			// marks over is all the bookkeeping there is.
			prevCur := ex.cur
			ex.cur = exprHeap(ex.next)
			for _, e := range ex.cur {
				e.Queued = inCur
			}
			ex.cur.init()
			ex.next = prevCur[:0]
		}
		for len(ex.cur) > 0 {
			e := ex.cur.pop()
			e.Queued &^= inCur
			ex.processing = e
			for _, r := range reg.ExplorationFor(e.Op()) {
				id := r.ID()
				p := reg.Pos(id)
				if ex.tab.off(p) {
					if ex.onFirstFire != nil {
						m.ReleaseBindings()
						if len(rules.Bind(m, e, r.Pattern())) > 0 {
							ex.onFirstFire(id, m.NumExprs())
							ex.onFirstFire = nil
						}
					}
					continue
				}
				if e.WasApplied(int(id)) {
					continue
				}
				// The previous application's substitutes are interned (or it
				// bound nothing): no binding is referred to any more.
				m.ReleaseBindings()
				binds := rules.Bind(m, e, r.Pattern())
				if len(binds) == 0 {
					// The pattern may start matching later, once child groups
					// gain expressions; retry when they grow.
					continue
				}
				e.MarkApplied(int(id))
				for _, b := range binds {
					subs := r.Apply(ex.ctx, b)
					if len(subs) > 0 {
						ex.tab.fire(p, id, b)
					}
					for _, sub := range subs {
						m.InsertSubstituteFrom(sub, e.Group, int(id))
					}
				}
				if m.NumExprs() >= ex.maxExprs {
					return false
				}
			}
			ex.processing = nil
			if len(ex.stop) > 0 && ex.tab.exercisedAll(ex.stop) {
				ex.stop = nil
				return true
			}
		}
	}
	return false
}

// exprLess orders memo expressions by scan position (group, then ord).
func exprLess(a, b *memo.MExpr) bool {
	if a.Group != b.Group {
		return a.Group < b.Group
	}
	return a.Ord < b.Ord
}

// exprHeap is a hand-rolled binary min-heap of memo expressions ordered by
// exprLess; it avoids container/heap's interface indirection on the hot path.
type exprHeap []*memo.MExpr

// init establishes the heap invariant over arbitrary contents.
func (h exprHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *exprHeap) push(e *memo.MExpr) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !exprLess((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *exprHeap) pop() *memo.MExpr {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	h.siftDown(0)
	return top
}

func (h exprHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && exprLess(h[l], h[small]) {
			small = l
		}
		if r < n && exprLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// ruleTab is one optimization's rule bookkeeping, kept so that applying a
// rule hashes nothing: one bit set, indexed by a rule's position p in the
// registry (rules.Registry.Pos), holds whether the rule is disabled (bit p),
// whether it was exercised (bit n+p) and whether the rule at c interacted
// with it (bit 2n+c*n+p); pairs lists those interactions. Result.RuleSet and
// Result.Interactions are built from it when the optimization is done.
type ruleTab struct {
	reg   *rules.Registry
	n     int
	bits  []uint64
	pairs [][2]rules.ID
}

func (t *ruleTab) bit(i int) bool { return t.bits[i>>6]&(1<<(i&63)) != 0 }
func (t *ruleTab) set(i int)      { t.bits[i>>6] |= 1 << (i & 63) }

// off reports whether the rule at position p is disabled; exercise records
// that it was exercised.
func (t *ruleTab) off(p int) bool { return t.bit(p) }
func (t *ruleTab) exercise(p int) { t.set(t.n + p) }

// exercisedAll reports whether the rules of ids were all exercised.
func (t *ruleTab) exercisedAll(ids []rules.ID) bool {
	for _, id := range ids {
		if !t.bit(t.n + t.reg.Pos(id)) {
			return false
		}
	}
	return true
}

// reset readies the table for an optimization with the rules of disabled
// off, keeping the storage of the last one.
func (t *ruleTab) reset(reg *rules.Registry, disabled rules.Set) {
	t.reg, t.n = reg, len(reg.All())
	t.bits, t.pairs = resized(t.bits, (t.n*(t.n+2)+63)/64), t.pairs[:0]
	t.disable(disabled)
}

// disable turns off exactly the rules of s that the registry holds.
func (t *ruleTab) disable(s rules.Set) {
	for p := range t.n {
		t.bits[p>>6] &^= 1 << (p & 63)
	}
	for id, on := range s {
		if p := t.reg.Pos(id); on && p >= 0 {
			t.set(p)
		}
	}
}

// fire records that exploration rule id, at position p, substituted binding
// b: it was exercised, and it interacted with each earlier rule that created
// an expression b matched (§7).
func (t *ruleTab) fire(p int, id rules.ID, b *memo.BoundExpr) {
	t.exercise(p)
	if b.Src != nil && b.Src.CreatedBy != 0 && rules.ID(b.Src.CreatedBy) != id {
		c := rules.ID(b.Src.CreatedBy)
		if i := t.n*(2+t.reg.Pos(c)) + p; !t.bit(i) {
			t.set(i)
			t.pairs = append(t.pairs, [2]rules.ID{c, id})
		}
	}
	for _, k := range b.Kids {
		t.fire(p, id, k)
	}
}

// ruleSet and interactions build the Result's maps.
func (t *ruleTab) ruleSet() rules.Set {
	var buf [64]rules.ID
	ids := buf[:0]
	for p, r := range t.reg.All() {
		if t.bit(t.n + p) {
			ids = append(ids, r.ID())
		}
	}
	return rules.NewSet(ids...)
}

func (t *ruleTab) interactions() map[[2]rules.ID]bool {
	out := make(map[[2]rules.ID]bool, len(t.pairs))
	for _, pair := range t.pairs {
		out[pair] = true
	}
	return out
}

// implementor runs the implementation/costing phase: a bottom-up dynamic
// program over the memo choosing the cheapest physical expression per group.
// Its per-group state is held in dense slices indexed by GroupID, sized by
// cost (the memo is final when implementation starts).
//
// Candidates belong to the implementor from the moment a rule returns them
// until they are published in best[]: one that loses its group's costing, or
// is displaced as the running best, goes back to the rules.Context, whose
// built-in rules build their next candidate in it, and so do, once the root
// is costed, the winners of groups the returned plan does not use
// (releaseLosers). Only the plan stays allocated, and nothing reachable from
// it is ever released.
type implementor struct {
	o        *Optimizer
	ctx      *rules.Context
	sb       *statsBuilder
	tab      *ruleTab
	best     []*physical.Expr // index = GroupID-1
	winner   []*memo.MExpr    // index = GroupID-1: the expression best[g] implements
	done     []bool           // index = GroupID-1: best[g] is final (may be nil: no plan)
	visiting []bool           // index = GroupID-1; all false again when bestPlan returns
	// wonBy records the rule whose candidate best[g] is (0: no plan), index =
	// GroupID-1, for Result.Without; nil when Without itself is costing.
	wonBy []rules.ID
	// costKids lends a candidate its children while it is being costed; a
	// candidate that wins gets a slice of its own (shared by the winners of
	// one memo expression, as before).
	costKids [2]*physical.Expr
	// onRelease, when set, sees every candidate just before it is released;
	// the recycling test poisons them here.
	onRelease func(*physical.Expr)
}

func (imp *implementor) release(cand *physical.Expr) {
	if imp.onRelease != nil {
		imp.onRelease(cand)
	}
	imp.ctx.Release(cand)
}

// cost runs the costing over the finished memo, in tables sized for it, and
// returns the root's best plan, nil when it has none. Join keys live in the
// rule context's scratch, rewound here, until KeepKeys copies the plan's.
func (imp *implementor) cost() *physical.Expr {
	root, n := imp.ctx.Memo.Root, imp.ctx.Memo.NumGroups()
	imp.best, imp.winner = resized(imp.best, n), resized(imp.winner, n)
	imp.done, imp.visiting = resized(imp.done, n), resized(imp.visiting, n)
	imp.ctx.RewindKeys()
	plan := imp.bestPlan(root)
	imp.releaseLosers(root)
	if plan != nil {
		imp.ctx.KeepKeys(plan)
	}
	return plan
}

func (imp *implementor) bestPlan(g memo.GroupID) *physical.Expr {
	if imp.done[g-1] {
		return imp.best[g-1]
	}
	if imp.visiting[g-1] {
		// Defensive: a cyclic group reference cannot yield a finite plan.
		return nil
	}
	imp.visiting[g-1] = true
	defer func() { imp.visiting[g-1] = false }()

	group, reg := imp.ctx.Memo.Group(g), imp.o.reg
	st := imp.sb.stats(g)
	var best *physical.Expr
	var bestRule rules.ID
	for _, e := range group.Exprs {
		ok := true
		for _, k := range e.Kids {
			if imp.bestPlan(k) == nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Every kid group is final now, so its plan is read back from best[]
		// into costKids only after the recursion, which shares that buffer.
		costKids := imp.costKids[:0]
		for _, k := range e.Kids {
			costKids = append(costKids, imp.best[k-1])
		}
		var kidPlans []*physical.Expr // the winners' Children, built on first use
		for _, ir := range reg.ImplementationFor(e.Op()) {
			id := ir.ID()
			p := reg.Pos(id)
			if imp.tab.off(p) {
				continue
			}
			cands := ir.Implement(imp.ctx, e)
			if len(cands) > 0 {
				imp.tab.exercise(p)
			}
			for _, cand := range cands {
				cand.Children = costKids
				cand.Rows = st.rows
				cost := localCost(cand)
				for _, kp := range costKids {
					cost += kp.Cost
				}
				cand.Cost = cost
				if best != nil && !(cand.Cost < best.Cost) {
					imp.release(cand)
					continue
				}
				if kidPlans == nil {
					kidPlans = append(make([]*physical.Expr, 0, len(costKids)), costKids...)
				}
				cand.Children = kidPlans
				if best != nil {
					imp.release(best)
				}
				best, bestRule = cand, id
				imp.winner[g-1] = e
			}
		}
	}
	imp.best[g-1] = best
	imp.done[g-1] = true
	if imp.wonBy != nil {
		imp.wonBy[g-1] = bestRule
	}
	return best
}

// releaseLosers releases every group's best plan that the plan of root (if it
// has one) does not contain, and forgets the rest: the tables then hold no
// node of the plan about to be returned.
func (imp *implementor) releaseLosers(root memo.GroupID) {
	if imp.best[root-1] != nil {
		imp.markPlan(root)
	}
	for i, p := range imp.best {
		if p != nil && !imp.visiting[i] {
			imp.release(p)
		}
	}
	clear(imp.best)
}

// markPlan sets visiting, idle once costing is over, on the groups whose best
// plans make up the best plan of g.
func (imp *implementor) markPlan(g memo.GroupID) {
	if imp.visiting[g-1] {
		return
	}
	imp.visiting[g-1] = true
	for _, k := range imp.winner[g-1].Kids {
		imp.markPlan(k)
	}
}

// String summarizes the optimizer configuration.
func (o *Optimizer) String() string {
	return fmt.Sprintf("optimizer{%d rules, %d tables}", len(o.reg.All()), o.cat.NumTables())
}
