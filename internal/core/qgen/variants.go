package qgen

import (
	"errors"
	"fmt"
	"time"

	"qtrtest/internal/bind"
	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/rules"
	"qtrtest/internal/sqlgen"
)

// This file implements the §7 variants of the query generation problem:
//
//   - Relevance: a rule that is exercised may still not influence the final
//     plan. GenerateRelevant finds a query where turning the rule OFF makes
//     the optimizer pick a DIFFERENT plan.
//   - Interactions: beyond "both rules fired somewhere",
//     GenerateInteractionPair finds a query where rule r2 fires on an
//     expression that rule r1's substitution created (the optimizer tracks
//     substitution provenance to observe this).

// GenerateRelevant generates a query for which the rule is *relevant*: the
// plan chosen with the rule disabled differs from the plan chosen with it
// enabled. Every trial costs one optimizer call and one Result.Without.
func (g *Generator) GenerateRelevant(id rules.ID) (*Query, error) {
	p, err := g.Pattern(id)
	if err != nil {
		return nil, err
	}
	//qtrlint:allow wallclock telemetry only: Elapsed reports generation latency, never influences the query produced
	start := time.Now()
	for trial := 1; trial <= g.cfg.MaxTrials; trial++ {
		md := logical.NewMetadata(g.opt.Catalog())
		tree, err := g.instantiate(p, md)
		if err != nil {
			continue
		}
		for i := 0; i < g.cfg.ExtraOps; i++ {
			if tree, err = g.wrapRandomOp(tree, md); err != nil {
				break
			}
		}
		if err != nil {
			continue
		}
		q, ok, err := g.relevantTry(tree, md, id)
		if err != nil {
			return nil, err
		}
		if ok {
			q.Trials = trial
			q.Elapsed = time.Since(start)
			return q, nil
		}
	}
	return nil, fmt.Errorf("%w (RELEVANT, rule %d, %d trials)", ErrExhausted, id, g.cfg.MaxTrials)
}

func (g *Generator) relevantTry(tree *logical.Expr, md *logical.Metadata, id rules.ID) (*Query, bool, error) {
	sqlText, err := sqlgen.Generate(tree, md)
	if err != nil {
		return nil, false, err
	}
	bound, err := bind.BindSQL(sqlText, g.opt.Catalog())
	if err != nil {
		return nil, false, fmt.Errorf("qgen: generated SQL failed to bind: %w", err)
	}
	on, err := g.opt.Optimize(bound.Tree, bound.MD, opt.Options{})
	if err != nil {
		return nil, false, err
	}
	defer on.Release()
	if !on.RuleSet.Contains(id) {
		return nil, false, nil
	}
	// With the rule off the query may become unplannable (for implementation
	// rules); that certainly makes the rule relevant.
	off, err := on.Without(id)
	if err != nil && !errors.Is(err, opt.ErrNoPlan) {
		return nil, false, err
	}
	if err == nil && off.Hash() == on.Plan.Hash() {
		return nil, false, nil
	}
	return &Query{SQL: sqlText, Tree: bound.Tree, MD: bound.MD, RuleSet: on.RuleSet, Plan: on.Plan, Cost: on.Cost}, true, nil
}

// GenerateInteractionPair generates a query exhibiting the §7 rule
// interaction "r2 is exercised on an expression obtained by exercising r1".
// Compositions where r1's pattern feeds r2's generic slots are tried first,
// since they are the shapes most likely to produce the dependency.
func (g *Generator) GenerateInteractionPair(r1, r2 rules.ID) (*Query, error) {
	p1, err := g.Pattern(r1)
	if err != nil {
		return nil, err
	}
	p2, err := g.Pattern(r2)
	if err != nil {
		return nil, err
	}
	// Prefer substituting r1's pattern into r2's slots: then r1 rewrites a
	// subtree that sits exactly where r2 will look for it.
	var candidates []*rules.Pattern
	for i := range p2.Generics() {
		c := p2.Clone()
		*c.Generics()[i] = *p1.Clone()
		candidates = append(candidates, c)
	}
	candidates = append(candidates, ComposePatterns(p1, p2)...)

	//qtrlint:allow wallclock telemetry only: Elapsed reports generation latency, never influences the query produced
	start := time.Now()
	for trial := 1; trial <= g.cfg.MaxTrials; trial++ {
		p := candidates[(trial-1)%len(candidates)]
		md := logical.NewMetadata(g.opt.Catalog())
		tree, err := g.instantiate(p, md)
		if err != nil {
			continue
		}
		sqlText, err := sqlgen.Generate(tree, md)
		if err != nil {
			continue
		}
		bound, err := bind.BindSQL(sqlText, g.opt.Catalog())
		if err != nil {
			return nil, fmt.Errorf("qgen: generated SQL failed to bind: %w", err)
		}
		res, err := g.opt.Optimize(bound.Tree, bound.MD, opt.Options{})
		if err != nil {
			return nil, err
		}
		res.Release()
		if res.Interactions[[2]rules.ID{r1, r2}] {
			return &Query{
				SQL: sqlText, Tree: bound.Tree, MD: bound.MD,
				RuleSet: res.RuleSet, Plan: res.Plan, Cost: res.Cost,
				Trials: trial, Elapsed: time.Since(start),
			}, nil
		}
	}
	return nil, fmt.Errorf("%w (INTERACTION, pair {%d,%d}, %d trials)", ErrExhausted, r1, r2, g.cfg.MaxTrials)
}
