// Package mutate implements rule-mutation fault injection: deliberately
// wrong variants ("mutants") of the optimizer's transformation rules, used
// to validate that the correctness oracle of §2.3 actually detects buggy
// rules — the method of deliberately-wrong transformations as oracle
// validation.
//
// Each mutant replaces exactly one rule of the default registry, in place,
// with a version whose substitution is subtly wrong: a dropped predicate
// conjunct, a swapped join type, a flipped sort direction, an off-by-one
// limit, a duplicated union branch, a wrong aggregate function. The mutated
// rule keeps its original ID and name, so rule targets and disabled-rule
// sets address it unchanged, and it keeps (or improves) the cost of its
// output, so the implementor's strict-improvement tie-break selects the
// mutated candidate whenever it competes with an equally priced correct one.
//
// For implementation-rule mutants, a pristine copy of the original rule is
// appended under ID Rule+PristineIDOffset: disabling the mutated rule must
// still leave a way to implement its operator (Plan(q,¬R) needs one), and
// because the mutated rule precedes the pristine copy in definition order it
// wins equal-cost ties. Exploration-rule mutants need no pristine copy —
// exploration rules only enlarge the search space.
//
// Running a test suite against a mutated optimizer and checking whether the
// suite reports a mismatch measures the suite's mutation score (see
// campaign.go).
package mutate

import (
	"fmt"

	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/physical"
	"qtrtest/internal/rules"
	"qtrtest/internal/scalar"
)

// PristineIDOffset shifts the rule ID under which an implementation-rule
// mutant re-registers the original ("pristine") rule. It is far above every
// real rule ID, so the shifted IDs never collide.
const PristineIDOffset rules.ID = 900

// Kind names the fault a mutant injects.
type Kind string

// The shipped mutant kinds.
const (
	// KindSwapJoinType rewrites Select(LeftJoin) to Select(Join)
	// unconditionally, dropping SimplifyLeftJoin's null-rejection
	// precondition: unmatched left rows are wrongly discarded whenever the
	// filter does not reject NULLs on the right side.
	KindSwapJoinType Kind = "swap-join-type"
	// KindDupUnionBranch makes UnionAllCommute emit UNION ALL branches that
	// duplicate one input and elide the other.
	KindDupUnionBranch Kind = "dup-union-branch"
	// KindDropFilterConjunct drops the last conjunct of every Filter
	// SelectToFilter emits (a single conjunct becomes TRUE).
	KindDropFilterConjunct Kind = "drop-filter-conjunct"
	// KindDropJoinConjunct drops the last equi-key pair, and its equality
	// conjunct, from every HashJoin JoinToHashJoin emits; with a single
	// equi-pair the join degenerates to a filtered cross product.
	KindDropJoinConjunct Kind = "drop-join-conjunct"
	// KindFlipSortDir flips the direction of the leading sort key in every
	// Sort SortToSort emits; only an order-sensitive oracle can catch it.
	KindFlipSortDir Kind = "flip-sort-dir"
	// KindLimitOffByOne makes LimitToLimit emit N-1 instead of N.
	KindLimitOffByOne Kind = "limit-off-by-one"
	// KindWrongAgg swaps aggregate functions in GroupByToHashAgg's output:
	// MIN and MAX trade places and SUM becomes MIN.
	KindWrongAgg Kind = "wrong-agg"
)

// Mutant describes one injected rule fault.
type Mutant struct {
	Kind Kind
	// Rule is the ID of the mutated rule; the mutant keeps this ID, so
	// targets and disabled-rule sets address it unchanged.
	Rule rules.ID
	// RuleName is the original rule's name, for reports.
	RuleName string
	// Description says what the injected bug does.
	Description string

	// explApply, when set, replaces the exploration rule's substitution
	// function entirely.
	explApply func(ctx *rules.Context, b *memo.BoundExpr) []*memo.BoundExpr
	// wrapImpl, when set, post-processes the implementation rule's physical
	// candidates. It may rewrite the freshly allocated candidate nodes but
	// must clone any slice shared with the logical expression.
	wrapImpl func(outs []*physical.Expr) []*physical.Expr
}

// String renders the mutant, e.g. "flip-sort-dir(SortToSort#116)".
func (m Mutant) String() string {
	return fmt.Sprintf("%s(%s#%d)", m.Kind, m.RuleName, m.Rule)
}

// Registry builds the optimizer rule set with this mutant's rule replaced in
// place (via rules.RegistryReplacing, so the mutated rule keeps the
// original's slot in definition order) plus, for implementation rules, the
// pristine copy appended under Rule+PristineIDOffset. The registry is
// stamped with the mutant's kind (Registry.Mutant), which is how reports and
// reproducer lines name the mutant they ran. It panics if the
// mutant references an unknown rule, mirroring NewRegistry's handling of
// definition errors.
func (m Mutant) Registry() *rules.Registry {
	orig, err := rules.DefaultRegistry().ByID(m.Rule)
	if err != nil {
		panic(fmt.Sprintf("mutate: mutant %s: %v", m, err))
	}
	switch r := orig.(type) {
	case rules.ExplorationRule:
		if m.explApply == nil {
			panic(fmt.Sprintf("mutate: mutant %s targets exploration rule without explApply", m))
		}
		sub := rules.NewExplorationRule(r.ID(), r.Name(), r.Pattern(), m.explApply)
		return rules.RegistryReplacing(string(m.Kind), sub)
	case rules.ImplementationRule:
		if m.wrapImpl == nil {
			panic(fmt.Sprintf("mutate: mutant %s targets implementation rule without wrapImpl", m))
		}
		wrap := m.wrapImpl
		sub := rules.NewImplementationRule(r.ID(), r.Name(), r.Pattern(),
			func(ctx *rules.Context, e *memo.MExpr) []*physical.Expr {
				return wrap(r.Implement(ctx, e))
			})
		pristine := rules.NewImplementationRule(
			r.ID()+PristineIDOffset, r.Name()+"Pristine", r.Pattern(), r.Implement)
		return rules.RegistryReplacing(string(m.Kind), sub, pristine)
	default:
		panic(fmt.Sprintf("mutate: mutant %s targets rule of unknown kind", m))
	}
}

// Mutants returns the shipped mutant catalog in deterministic order.
func Mutants() []Mutant {
	return []Mutant{
		{
			Kind: KindSwapJoinType, Rule: 9, RuleName: "SimplifyLeftJoin",
			Description: "turn LEFT JOIN into INNER JOIN without checking that the filter rejects NULLs",
			explApply: func(ctx *rules.Context, b *memo.BoundExpr) []*memo.BoundExpr {
				join := b.Kids[0]
				newJoin := memo.NewBound(&logical.Expr{Op: logical.OpJoin, On: join.Node.On},
					join.Kids[0], join.Kids[1])
				return []*memo.BoundExpr{
					memo.NewBound(&logical.Expr{Op: logical.OpSelect, Filter: b.Node.Filter}, newJoin),
				}
			},
		},
		{
			Kind: KindDupUnionBranch, Rule: 23, RuleName: "UnionAllCommute",
			Description: "commute UNION ALL into branch-duplicating unions (one input twice, the other elided)",
			explApply: func(ctx *rules.Context, b *memo.BoundExpr) []*memo.BoundExpr {
				out := make([]*memo.BoundExpr, 0, 2)
				for i := 0; i < 2; i++ {
					out = append(out, memo.NewBound(&logical.Expr{
						Op:        logical.OpUnionAll,
						OutCols:   b.Node.OutCols,
						InputCols: [][]scalar.ColumnID{b.Node.InputCols[i], b.Node.InputCols[i]},
					}, b.Kids[i], b.Kids[i]))
				}
				return out
			},
		},
		{
			Kind: KindDropFilterConjunct, Rule: 102, RuleName: "SelectToFilter",
			Description: "drop the last conjunct of every filter predicate",
			wrapImpl: func(outs []*physical.Expr) []*physical.Expr {
				for _, out := range outs {
					if out.Op != physical.OpFilter {
						continue
					}
					conj := scalar.Conjuncts(out.Filter)
					if len(conj) == 0 {
						continue
					}
					out.Filter = scalar.MakeAnd(conj[:len(conj)-1])
				}
				return outs
			},
		},
		{
			Kind: KindDropJoinConjunct, Rule: 104, RuleName: "JoinToHashJoin",
			Description: "drop the last equi-key pair and its equality conjunct from every hash join",
			wrapImpl: func(outs []*physical.Expr) []*physical.Expr {
				for _, out := range outs {
					if out.Op != physical.OpHashJoin || len(out.EquiLeft) == 0 {
						continue
					}
					n := len(out.EquiLeft)
					dl, dr := out.EquiLeft[n-1], out.EquiRight[n-1]
					out.EquiLeft = append([]scalar.ColumnID(nil), out.EquiLeft[:n-1]...)
					out.EquiRight = append([]scalar.ColumnID(nil), out.EquiRight[:n-1]...)
					conj := scalar.Conjuncts(out.On)
					kept := make([]scalar.Expr, 0, len(conj))
					dropped := false
					for _, c := range conj {
						if _, _, eq := logical.EquiPair(c, scalar.NewColSet(dl), scalar.NewColSet(dr)); eq && !dropped {
							dropped = true
							continue
						}
						kept = append(kept, c)
					}
					out.On = scalar.MakeAnd(kept)
				}
				return outs
			},
		},
		{
			Kind: KindFlipSortDir, Rule: 116, RuleName: "SortToSort",
			Description: "flip the direction of the leading sort key",
			wrapImpl: func(outs []*physical.Expr) []*physical.Expr {
				for _, out := range outs {
					if out.Op != physical.OpSort || len(out.Keys) == 0 {
						continue
					}
					keys := append([]logical.SortKey(nil), out.Keys...)
					keys[0].Desc = !keys[0].Desc
					out.Keys = keys
				}
				return outs
			},
		},
		{
			Kind: KindLimitOffByOne, Rule: 117, RuleName: "LimitToLimit",
			Description: "emit LIMIT N-1 instead of LIMIT N",
			wrapImpl: func(outs []*physical.Expr) []*physical.Expr {
				for _, out := range outs {
					if out.Op == physical.OpLimit && out.N > 0 {
						out.N--
					}
				}
				return outs
			},
		},
		{
			Kind: KindWrongAgg, Rule: 113, RuleName: "GroupByToHashAgg",
			Description: "swap aggregate functions: MIN<->MAX, SUM->MIN",
			wrapImpl: func(outs []*physical.Expr) []*physical.Expr {
				for _, out := range outs {
					if out.Op != physical.OpHashAgg {
						continue
					}
					aggs := append([]scalar.Agg(nil), out.Aggs...)
					changed := false
					for i, a := range aggs {
						switch a.Op {
						case scalar.AggMin:
							aggs[i].Op = scalar.AggMax
							changed = true
						case scalar.AggMax:
							aggs[i].Op = scalar.AggMin
							changed = true
						case scalar.AggSum:
							aggs[i].Op = scalar.AggMin
							changed = true
						}
					}
					if changed {
						out.Aggs = aggs
					}
				}
				return outs
			},
		},
	}
}

// ByKind returns the shipped mutants matching the given kinds, in catalog
// order; unknown kinds produce an error.
func ByKind(kinds ...Kind) ([]Mutant, error) {
	want := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var out []Mutant
	for _, m := range Mutants() {
		if want[m.Kind] {
			out = append(out, m)
			delete(want, m.Kind)
		}
	}
	for k := range want {
		return nil, fmt.Errorf("mutate: unknown mutant kind %q", k)
	}
	return out, nil
}
