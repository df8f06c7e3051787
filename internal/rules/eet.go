package rules

import (
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/scalar"
)

// EET rules lift the scalar expression-level equivalence catalog
// (scalar.EETRewrites) into exploration-rule candidates, so the paper's
// rule-coverage machinery measures the grown vocabulary. Like the extension
// pack they ship outside DefaultRegistry — build a registry with
// RegistryWithEET to enable them; `qtrtest check -eet` lints that registry.
//
// IDs 41–47 (the 35–40 band is left free for future extension rules).
//
// Termination: the five shape-growing rewrites (tautology, double negation,
// De Morgan, comparison negation, false branch) all inject a NOT node into
// the filter, and each only fires when the filter contains NO NOT node yet
// — so filters reachable from a NOT-free filter grow at most once, and the
// reachable expression set stays finite under memo deduplication. The two
// arithmetic rewrites are size-preserving, so their orbit is finite and the
// memo's fingerprint dedup closes it.

// eetRuleBaseID is the first ID of the EET exploration-rule pack.
const eetRuleBaseID = 41

// eetRuleNames maps scalar.EETRewrites() catalog order to rule names.
var eetRuleNames = []string{
	"EETNullTautology",
	"EETDoubleNegation",
	"EETDeMorgan",
	"EETNegateComparison",
	"EETOrFalseBranch",
	"EETCommuteArith",
	"EETAssocArith",
}

// EETRules returns the EET exploration-rule candidates, one per catalog
// rewrite, in catalog order.
func EETRules() []ExplorationRule {
	catalog := scalar.EETRewrites()
	out := make([]ExplorationRule, len(catalog))
	for i, er := range catalog {
		er := er
		// The growth rewrites apply at the filter root only; the
		// arithmetic ones at any site (an Arith never sits at the root of
		// a boolean filter).
		atAnySite := er.Name == "eet-commute-arith" || er.Name == "eet-assoc-arith"
		out[i] = expl(ID(eetRuleBaseID+i), eetRuleNames[i], P(logical.OpSelect, Any()),
			func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr {
				return applyEET(ctx, b, er, atAnySite)
			}).producing(P(logical.OpSelect, Any()))
	}
	return out
}

// RegistryWithEET returns the default rule set plus the EET candidates.
func RegistryWithEET() *Registry {
	var extra []Rule
	for _, r := range EETRules() {
		extra = append(extra, r)
	}
	return RegistryWith(extra...)
}

func applyEET(ctx *Context, b *memo.BoundExpr, er scalar.EETRewrite, atAnySite bool) []*memo.BoundExpr {
	f := b.Node.Filter
	if f == nil {
		return nil
	}
	env := ctx.MD().TypeEnv()
	var filters []scalar.Expr
	if atAnySite {
		for _, s := range scalar.RewriteSites(f) {
			if repl := er.Apply(s.E, env); repl != nil {
				filters = append(filters, s.Rebuild(repl))
			}
		}
	} else {
		// Root-only, and only on artifact-free filters (see the
		// termination note above).
		if containsNot(f) {
			return nil
		}
		if repl := er.Apply(f, env); repl != nil {
			filters = append(filters, repl)
		}
	}
	out := make([]*memo.BoundExpr, len(filters))
	for i, nf := range filters {
		out[i] = ctx.Memo.BoundNew(logical.Expr{Op: logical.OpSelect, Filter: nf}, b.Kids[0])
	}
	return out
}

// containsNot reports whether any node of e is a NOT. Every shape-growing
// EET rewrite's output contains one, so "NOT-free" marks a filter no growth
// rewrite has touched.
func containsNot(e scalar.Expr) bool {
	switch t := e.(type) {
	case *scalar.Not:
		return true
	case *scalar.Cmp:
		return containsNot(t.L) || containsNot(t.R)
	case *scalar.Arith:
		return containsNot(t.L) || containsNot(t.R)
	case *scalar.And:
		for _, k := range t.Kids {
			if containsNot(k) {
				return true
			}
		}
	case *scalar.Or:
		for _, k := range t.Kids {
			if containsNot(k) {
				return true
			}
		}
	case *scalar.IsNull:
		return containsNot(t.Kid)
	}
	return false
}
