package rules

import (
	"fmt"
	"slices"

	"qtrtest/internal/memo"
	"qtrtest/internal/physical"
)

// validateDefinition rejects malformed custom-rule definitions at
// construction time, so a nil pattern or missing substitution fails where
// the rule is defined rather than later inside the optimizer's binder.
func validateDefinition(id ID, name string, pattern *Pattern, fnNil bool) {
	if name == "" {
		panic(fmt.Sprintf("rules: rule #%d has an empty name", id))
	}
	if fnNil {
		panic(fmt.Sprintf("rules: rule %s(#%d) has a nil substitution function", name, id))
	}
	if err := ValidatePattern(pattern); err != nil {
		panic(fmt.Sprintf("rules: rule %s(#%d): %v", name, id, err))
	}
}

// NewExplorationRule builds a custom exploration rule. This is the
// extensibility hook: downstream users (and the fault-injection examples)
// can register additional rules alongside the built-in set. It panics on a
// nil or malformed pattern and on a nil apply function. The returned rule
// declares no produced shapes; use NewExplorationRuleProducing when the
// static analyzer should see through the rule.
func NewExplorationRule(id ID, name string, pattern *Pattern,
	apply func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr) ExplorationRule {
	validateDefinition(id, name, pattern, apply == nil)
	return &explRule{
		info:  info{id: id, name: name, kind: KindExploration, pattern: pattern},
		apply: apply,
	}
}

// NewExplorationRuleProducing is NewExplorationRule with declared output
// shapes (see Producer): internal/rulecheck's termination and composability
// analyses treat the rule like a built-in instead of flagging it opaque.
func NewExplorationRuleProducing(id ID, name string, pattern *Pattern, produces []*Pattern,
	apply func(ctx *Context, b *memo.BoundExpr) []*memo.BoundExpr) ExplorationRule {
	validateDefinition(id, name, pattern, apply == nil)
	for _, p := range produces {
		if err := ValidatePattern(p); err != nil {
			panic(fmt.Sprintf("rules: rule %s(#%d) produces: %v", name, id, err))
		}
	}
	return &explRule{
		info:  info{id: id, name: name, kind: KindExploration, pattern: pattern, produces: produces},
		apply: apply,
	}
}

// NewImplementationRule builds a custom implementation rule. It panics on a
// nil or malformed pattern and on a nil implement function.
func NewImplementationRule(id ID, name string, pattern *Pattern,
	implement func(ctx *Context, e *memo.MExpr) []*physical.Expr) ImplementationRule {
	validateDefinition(id, name, pattern, implement == nil)
	return &implRule{
		info: info{id: id, name: name, kind: KindImplementation, pattern: pattern},
		impl: implement,
	}
}

// RegistryWith returns a registry holding the default rule set plus the
// given extra rules.
func RegistryWith(extra ...Rule) *Registry { return Extend(DefaultRegistry(), extra...) }

// Extend returns a registry holding every rule of base plus the extra rules
// appended in order, stamped with base's mutant (Mutant). Unlike
// RegistryWith, which always starts from the default rule set, Extend
// composes with any base — a mutant registry, an already-extended one —
// which is what lets the check and verify commands combine a fault-injected
// registry with the EET rule pack. R lets a typed pack such as EETRules()
// pass as it is. Duplicate ids or names panic via NewRegistry, mirroring the
// other constructors.
func Extend[R Rule](base *Registry, extra ...R) *Registry {
	all := slices.Clone(base.all)
	for _, r := range extra {
		all = append(all, r)
	}
	reg := NewRegistry(all...)
	reg.mutant = base.mutant
	return reg
}

// RegistryReplacing returns the registry of a fault-injection mutant: the
// default rule set with sub in the place of the default rule with its ID,
// plus the extra rules appended at the end, stamped with the mutant's kind
// (Mutant). The substitute occupies the original rule's slot in definition
// order, which matters because the implementor breaks equal-cost ties by
// definition order: an interposed rule competes exactly as the original did,
// while an appended one would lose every tie. This is the interposition seam
// used by fault injection (internal/mutate) to shadow one rule with a
// deliberately wrong variant. It panics if sub's ID names no default rule,
// mirroring NewRegistry's handling of definition errors.
func RegistryReplacing(mutant string, sub Rule, extra ...Rule) *Registry {
	def := DefaultRegistry()
	p := def.Pos(sub.ID())
	if p < 0 {
		panic(fmt.Sprintf("rules: RegistryReplacing: no default rule with id %d", sub.ID()))
	}
	def.all[p] = sub
	reg := NewRegistry(append(def.all, extra...)...)
	reg.mutant = mutant
	return reg
}
