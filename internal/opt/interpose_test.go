package opt

import (
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/physical"
	"qtrtest/internal/rules"
)

// TestInterposedRuleWinsTieAndPristineFallsBack pins the two optimizer
// properties rule-mutation fault injection (internal/mutate) relies on:
//
//  1. a rule interposed in place via rules.RegistryReplacing keeps the
//     original's slot in definition order, so it wins the implementor's
//     equal-cost tie-break against an identically priced copy appended at
//     the end of the registry;
//  2. disabling the interposed rule falls back to that appended copy, so
//     Plan(q, ¬R) can still implement the operator.
func TestInterposedRuleWinsTieAndPristineFallsBack(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())

	const sortRule rules.ID = 116
	orig, err := rules.DefaultRegistry().ByID(sortRule)
	if err != nil {
		t.Fatal(err)
	}
	ir := orig.(rules.ImplementationRule)
	// The substitute emits the same Sort candidates at the same cost, but
	// with the leading key direction flipped — observable in the plan.
	flipped := rules.NewImplementationRule(ir.ID(), ir.Name(), ir.Pattern(),
		func(ctx *rules.Context, e *memo.MExpr) []*physical.Expr {
			outs := ir.Implement(ctx, e)
			for _, out := range outs {
				if out.Op == physical.OpSort && len(out.Keys) > 0 {
					keys := append([]logical.SortKey(nil), out.Keys...)
					keys[0].Desc = !keys[0].Desc
					out.Keys = keys
				}
			}
			return outs
		})
	pristine := rules.NewImplementationRule(
		ir.ID()+900, ir.Name()+"Pristine", ir.Pattern(), ir.Implement)
	o := New(rules.RegistryReplacing("", flipped, pristine), cat)

	bound, err := bind.BindSQL("SELECT n_name FROM nation ORDER BY n_name", cat)
	if err != nil {
		t.Fatal(err)
	}

	plan := func(disabled ...rules.ID) *physical.Expr {
		res, err := o.Optimize(bound.Tree, bound.MD, Options{Disabled: rules.NewSet(disabled...)})
		if err != nil {
			t.Fatalf("optimize (disabled %v): %v", disabled, err)
		}
		return res.Plan
	}
	sortOf := func(p *physical.Expr) *physical.Expr {
		for e := p; e != nil; {
			if e.Op == physical.OpSort {
				return e
			}
			if len(e.Children) == 0 {
				break
			}
			e = e.Children[0]
		}
		t.Fatalf("no Sort in plan:\n%s", p)
		return nil
	}

	if s := sortOf(plan()); !s.Keys[0].Desc {
		t.Errorf("interposed rule did not win the equal-cost tie: sort key is asc\nplan:\n%s", plan())
	}
	if s := sortOf(plan(sortRule)); s.Keys[0].Desc {
		t.Errorf("pristine fallback not used with rule %d disabled: sort key is desc\nplan:\n%s", sortRule, plan(sortRule))
	}
}
