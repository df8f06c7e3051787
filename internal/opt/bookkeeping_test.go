package opt_test

import (
	"maps"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/memo"
	"qtrtest/internal/opt"
	"qtrtest/internal/rules"
)

// TestRuleBookkeeping checks the optimizer's per-rule bookkeeping against
// what the rules themselves see: every exploration rule is wrapped to record,
// on each application with substitutes, that it fired and the (creator,
// fired) interaction for every expression of its binding an earlier rule
// created. Result.Interactions must equal the recorded pairs and the
// exploration part of Result.RuleSet the recorded rules, over the
// differential corpora and 200 fuzz-drawn trees per schema, with nothing
// disabled and with the lowest exercised rule disabled.
func TestRuleBookkeeping(t *testing.T) {
	var fired rules.Set
	var seen map[[2]rules.ID]bool
	var record func(b *memo.BoundExpr, id rules.ID)
	record = func(b *memo.BoundExpr, id rules.ID) {
		if b.Src != nil && b.Src.CreatedBy != 0 && rules.ID(b.Src.CreatedBy) != id {
			seen[[2]rules.ID{rules.ID(b.Src.CreatedBy), id}] = true
		}
		for _, k := range b.Kids {
			record(k, id)
		}
	}
	var wrapped []rules.Rule
	for _, r := range rules.DefaultRegistry().All() {
		er, ok := r.(rules.ExplorationRule)
		if !ok {
			wrapped = append(wrapped, r)
			continue
		}
		wrapped = append(wrapped, rules.NewExplorationRule(er.ID(), er.Name(), er.Pattern(),
			func(ctx *rules.Context, b *memo.BoundExpr) []*memo.BoundExpr {
				subs := er.Apply(ctx, b)
				if len(subs) > 0 {
					fired.Add(er.ID())
					record(b, er.ID())
				}
				return subs
			}))
	}
	reg := rules.NewRegistry(wrapped...)
	interactions := 0
	for _, d := range []struct {
		cat    *catalog.Catalog
		corpus []string
	}{
		{catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 1, Seed: 42}), opt.TPCHCorpus},
		{catalog.LoadStar(catalog.StarConfig{ScaleRows: 1, Seed: 42}), opt.StarCorpus},
	} {
		o := opt.New(reg, d.cat)
		for _, q := range withoutQueries(t, d.cat, d.corpus, 100) {
			// The second optimization disables what the first set lowest to.
			var none, lowest rules.Set
			for _, disabled := range []*rules.Set{&none, &lowest} {
				fired, seen = rules.Set{}, map[[2]rules.ID]bool{}
				res, err := o.Optimize(q.Tree, q.MD, opt.Options{Disabled: *disabled})
				if err != nil {
					continue
				}
				explored := rules.Set{}
				for id := range res.RuleSet {
					if r, _ := reg.ByID(id); r.Kind() == rules.KindExploration {
						explored.Add(id)
					}
				}
				if !maps.Equal(explored, fired) || !maps.Equal(res.Interactions, seen) {
					t.Fatalf("disabled %v: RuleSet %v, Interactions %v; the rules saw %v and %v",
						disabled.Sorted(), res.RuleSet.Sorted(), res.Interactions, fired.Sorted(), seen)
				}
				interactions += len(seen)
				if ids := res.RuleSet.Sorted(); len(ids) > 0 {
					lowest = rules.NewSet(ids[0])
				}
				res.Release()
			}
		}
	}
	if interactions < 100 {
		t.Errorf("only %d interactions recorded; the corpus no longer exercises them", interactions)
	}
}
