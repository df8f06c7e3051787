package qgen

import (
	"errors"
	"fmt"
	"math"
	"time"

	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/rules"
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
// enabled. A trial that exercises the rule costs one Finish and one Without.
func (g *Generator) GenerateRelevant(id rules.ID) (*Query, error) {
	p, err := g.Pattern(id)
	if err != nil {
		return nil, err
	}
	//qtrlint:allow wallclock telemetry only: Elapsed reports generation latency, never influences the query produced
	start := time.Now()
	var q *Query
	err = g.sweep([]*rules.Pattern{p}, g.cfg.ExtraOps, func(trial int, tree *logical.Expr, md *logical.Metadata) (bool, error) {
		hit, err := g.tryTree(tree, md, []rules.ID{id}, math.MaxInt)
		if hit == nil {
			return false, err
		}
		hit.Trials, hit.Elapsed = trial, time.Since(start)
		q, err = g.keepRelevant(hit, id)
		return q != nil, err
	})
	if q != nil || err != nil {
		return q, err
	}
	return nil, fmt.Errorf("%w (RELEVANT, rule %d, %d trials)", ErrExhausted, id, g.cfg.MaxTrials)
}

// keepRelevant keeps the hit if disabling the rule changes its plan.
func (g *Generator) keepRelevant(q *Query, id rules.ID) (*Query, error) {
	defer g.release(q)
	if err := q.res.Finish(); err != nil {
		return nil, err
	}
	// With the rule off the query may become unplannable (for implementation
	// rules); that certainly makes the rule relevant.
	off, err := q.res.Without(id)
	if err != nil && !errors.Is(err, opt.ErrNoPlan) {
		return nil, err
	}
	if err == nil && off.Hash() == q.res.Plan.Hash() {
		return nil, nil
	}
	return g.keep(q)
}

// GenerateInteractionPair generates a query exhibiting the §7 rule
// interaction "r2 is exercised on an expression obtained by exercising r1".
// Compositions where r1's pattern feeds r2's generic slots are tried first,
// since they are the shapes most likely to produce the dependency. A trial is
// explored to its end, but only the query kept is costed.
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
	candidates := append(ComposePatterns(p2, p1)[:len(p2.Generics())], ComposePatterns(p1, p2)...)

	//qtrlint:allow wallclock telemetry only: Elapsed reports generation latency, never influences the query produced
	start := time.Now()
	var q *Query
	err = g.sweep(candidates, 0, func(trial int, tree *logical.Expr, md *logical.Metadata) (bool, error) {
		hit, err := g.tryTree(tree, md, nil, math.MaxInt)
		if errors.As(err, new(renderError)) {
			return false, nil // on to the next trial
		}
		if err != nil || !hit.res.Interactions[[2]rules.ID{r1, r2}] {
			g.release(hit)
			return false, err
		}
		hit.Trials, hit.Elapsed = trial, time.Since(start)
		q, err = g.keep(hit)
		return true, err
	})
	if q != nil || err != nil {
		return q, err
	}
	return nil, fmt.Errorf("%w (INTERACTION, pair {%d,%d}, %d trials)", ErrExhausted, r1, r2, g.cfg.MaxTrials)
}
