// Package qgen implements the paper's query generation module (§3): given a
// transformation rule (or rule pair), generate a SQL query that exercises it
// when optimized.
//
// Two methods are provided:
//
//   - RANDOM: the state-of-the-art baseline [1][17] — generate stochastic
//     queries until one exercises the target rules.
//   - PATTERN: the paper's contribution — fetch the rule's pattern through
//     the optimizer's XML API, instantiate its generic operators and
//     arguments into a concrete logical query tree, emit SQL, and verify
//     via RuleSet(q). For rule pairs, compose the two patterns (§3.2).
//
// Both methods run a trial through the full pipeline (tree → SQL → parse →
// bind → optimize), like the paper's prototype on a real server, but explore
// it only until its target rules have fired (opt.Optimizer.Explore): only the
// query kept is explored to the end and costed. A pair trial whose query
// could not replace the smallest hit so far stops before optimize.
package qgen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"qtrtest/internal/bind"
	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/physical"
	"qtrtest/internal/rules"
	"qtrtest/internal/sqlgen"
)

// Config tunes a Generator.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// MaxTrials bounds the attempts per target before giving up (default
	// 512).
	MaxTrials int
	// ExtraOps pads each generated query with this many additional random
	// operators (§2.3's complexity constraint), used when generating
	// correctness-test queries that should be non-trivial.
	ExtraOps int
}

// Query is a generated test case.
type Query struct {
	SQL     string
	Tree    *logical.Expr
	MD      *logical.Metadata
	RuleSet rules.Set
	// Plan is the best physical plan with all rules enabled — Plan(q) —
	// captured at generation time so downstream consumers (the correctness
	// runner in particular) never re-invoke the optimizer for it.
	Plan *physical.Expr
	// Cost is the optimizer-estimated cost of the best plan (all rules on).
	Cost float64
	// Trials is the number of attempts needed to find this query.
	Trials int
	// Elapsed is the wall-clock time spent, including failed trials.
	Elapsed time.Duration
	res     *opt.Result // a hit's unfinished optimization, until kept or dropped
}

// ErrExhausted is returned when MaxTrials attempts did not produce a query
// exercising the target rules.
var ErrExhausted = errors.New("qgen: trial budget exhausted without exercising the target rules")

// Generator produces rule-targeted test queries. A Generator owns a single
// RNG and is therefore NOT safe for concurrent use; parallel campaigns give
// every worker its own generator via Fork.
type Generator struct {
	opt      *opt.Optimizer
	cfg      Config
	rng      *rand.Rand
	patterns map[rules.ID]*rules.Pattern
	// onRelease, when non-nil, sees each trial's optimization just before it
	// is released. Unexported: the budget tests count with it.
	onRelease func(*opt.Result)
}

// New builds a generator. The rule patterns are fetched through the
// registry's XML export — the DBMS API surface of §3.1 — rather than by
// linking to the rule implementations.
func New(o *opt.Optimizer, cfg Config) (*Generator, error) {
	if cfg.MaxTrials <= 0 {
		cfg.MaxTrials = 512
	}
	data, err := o.Registry().ExportXML()
	if err != nil {
		return nil, fmt.Errorf("qgen: exporting rule patterns: %w", err)
	}
	exported, err := rules.ParseExportXML(data)
	if err != nil {
		return nil, fmt.Errorf("qgen: parsing rule patterns: %w", err)
	}
	pats := make(map[rules.ID]*rules.Pattern, len(exported))
	for _, er := range exported {
		pats[er.ID] = er.Pattern
	}
	return &Generator{
		opt:      o,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		patterns: pats,
	}, nil
}

// Fork returns a generator sharing this one's optimizer, configuration and
// parsed rule patterns (all read-only), but with an independent RNG seeded
// at seed. Forked generators can run on concurrent workers; deriving the
// seed from the work item (not from shared RNG state) is what keeps
// parallel generation byte-identical to a sequential run.
func (g *Generator) Fork(seed int64) *Generator {
	return &Generator{
		opt:       g.opt,
		cfg:       g.cfg,
		rng:       rand.New(rand.NewSource(seed)),
		patterns:  g.patterns,
		onRelease: g.onRelease,
	}
}

// Pattern returns the exported pattern for a rule id.
func (g *Generator) Pattern(id rules.ID) (*rules.Pattern, error) {
	p, ok := g.patterns[id]
	if !ok {
		return nil, fmt.Errorf("qgen: no pattern for rule %d", id)
	}
	return p, nil
}

// renderError is a trial's failure to render its tree to SQL.
type renderError struct{ error }

// tryTree renders the tree to SQL, parses and binds it, and explores it until
// every target rule has fired: a hit, its optimization unfinished, or nil for
// a miss and (not optimized) for a tree of maxOps operators or more.
func (g *Generator) tryTree(tree *logical.Expr, md *logical.Metadata, target []rules.ID, maxOps int) (*Query, error) {
	sqlText, err := sqlgen.Generate(tree, md)
	if err != nil {
		return nil, renderError{err}
	}
	bound, err := bind.BindSQL(sqlText, g.opt.Catalog())
	if err != nil {
		return nil, fmt.Errorf("qgen: generated SQL failed to bind: %w\nSQL: %s", err, sqlText)
	}
	if bound.Tree.CountOps() >= maxOps {
		return nil, nil
	}
	res, err := g.opt.Explore(bound.Tree, bound.MD, opt.Options{}, target...)
	if err != nil {
		return nil, err
	}
	q := &Query{SQL: sqlText, Tree: bound.Tree, MD: bound.MD, res: res}
	for _, id := range target {
		if !res.RuleSet.Contains(id) {
			g.release(q)
			return nil, nil
		}
	}
	return q, nil
}

// keep finishes the hit's optimization, takes its answers and releases it.
func (g *Generator) keep(q *Query) (*Query, error) {
	defer g.release(q)
	if err := q.res.Finish(); err != nil {
		return nil, err
	}
	q.RuleSet, q.Plan, q.Cost = q.res.RuleSet, q.res.Plan, q.res.Cost
	return q, nil
}

// release hands a hit's optimization back to the optimizer, if it holds one.
func (g *Generator) release(q *Query) {
	if q == nil || q.res == nil {
		return
	}
	if g.onRelease != nil && q.res.Memo != nil {
		g.onRelease(q.res)
	}
	q.res.Release()
	q.res = nil
}

// sweep runs trials until try reports done or an error, or MaxTrials: trial n
// instantiates candidates[(n-1) % len] and pads it with pad random operators,
// or is skipped when the catalog has no arguments for that.
func (g *Generator) sweep(candidates []*rules.Pattern, pad int, try func(trial int, tree *logical.Expr, md *logical.Metadata) (done bool, err error)) error {
	for trial := 1; trial <= g.cfg.MaxTrials; trial++ {
		md := logical.NewMetadata(g.opt.Catalog())
		tree, err := g.instantiate(candidates[(trial-1)%len(candidates)], md)
		for i := 0; i < pad && err == nil; i++ {
			tree, err = g.wrapRandomOp(tree, md)
		}
		if err != nil {
			continue
		}
		if done, err := try(trial, tree, md); done || err != nil {
			return err
		}
	}
	return nil
}

// GenerateRandom is the RANDOM method: stochastic queries until one
// exercises every rule in target.
func (g *Generator) GenerateRandom(target []rules.ID) (*Query, error) {
	//qtrlint:allow wallclock telemetry only: Elapsed reports generation latency, never influences the query produced
	start := time.Now()
	for trial := 1; trial <= g.cfg.MaxTrials; trial++ {
		md := logical.NewMetadata(g.opt.Catalog())
		tree, err := g.RandomTreeWeighted(md, 2+g.rng.Intn(5)+g.cfg.ExtraOps, randomWeights)
		if err != nil {
			return nil, err
		}
		q, err := g.tryTree(tree, md, target, math.MaxInt)
		if err != nil {
			return nil, err
		}
		if q != nil {
			q.Trials, q.Elapsed = trial, time.Since(start)
			return g.keep(q)
		}
	}
	return nil, fmt.Errorf("%w (RANDOM, target %v, %d trials)", ErrExhausted, target, g.cfg.MaxTrials)
}

// GeneratePattern is the PATTERN method for a single rule.
func (g *Generator) GeneratePattern(id rules.ID) (*Query, error) {
	p, err := g.Pattern(id)
	if err != nil {
		return nil, err
	}
	return g.generateFromPatterns([]rules.ID{id}, []*rules.Pattern{p})
}

// GeneratePatternPair is the PATTERN method for a rule pair: the two rule
// patterns are composed (§3.2) and instantiated; among candidate
// compositions the query with the fewest operators that exercises both rules
// wins.
func (g *Generator) GeneratePatternPair(a, b rules.ID) (*Query, error) {
	pa, err := g.Pattern(a)
	if err != nil {
		return nil, err
	}
	pb, err := g.Pattern(b)
	if err != nil {
		return nil, err
	}
	comps := ComposePatterns(pa, pb)
	return g.generateFromPatterns([]rules.ID{a, b}, comps)
}

// generateFromPatterns rotates through candidate patterns, instantiating
// each with fresh random arguments per trial. It prefers the smallest query:
// once every candidate composition has been swept, it returns the best found
// (§3.2). Only a trial smaller than the best hit so far can change that, so
// only such a trial is optimized; a hit is therefore the new best, and holds
// its unfinished optimization until a smaller hit displaces it or the sweep
// ends.
func (g *Generator) generateFromPatterns(target []rules.ID, candidates []*rules.Pattern) (*Query, error) {
	//qtrlint:allow wallclock telemetry only: Elapsed reports generation latency, never influences the query produced
	start := time.Now()
	var best *Query
	defer func() { g.release(best) }()
	maxOps := math.MaxInt // best's operator count, once there is one
	err := g.sweep(candidates, g.cfg.ExtraOps, func(trial int, tree *logical.Expr, md *logical.Metadata) (bool, error) {
		q, err := g.tryTree(tree, md, target, maxOps)
		if q != nil {
			g.release(best)
			q.Trials, q.Elapsed = trial, time.Since(start)
			best, maxOps = q, q.Tree.CountOps()
		}
		return best != nil && trial >= len(candidates), err
	})
	if err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("%w (PATTERN, target %v, %d trials)", ErrExhausted, target, g.cfg.MaxTrials)
	}
	return g.keep(best)
}

// ComposePatterns enumerates compositions of two rule patterns (§3.2):
//  1. a new root (Join or UnionAll) with the two patterns as children, and
//  2. each pattern substituted into each generic slot of the other.
func ComposePatterns(a, b *rules.Pattern) []*rules.Pattern {
	var out []*rules.Pattern
	// Substitution compositions first: they tend to produce smaller queries
	// and capture the input/output rule interaction the paper highlights.
	for i := range a.Generics() {
		c := a.Clone()
		*c.Generics()[i] = *b.Clone()
		out = append(out, c)
	}
	for i := range b.Generics() {
		c := b.Clone()
		*c.Generics()[i] = *a.Clone()
		out = append(out, c)
	}
	out = append(out,
		rules.P(logical.OpJoin, a.Clone(), b.Clone()),
		rules.P(logical.OpUnionAll, a.Clone(), b.Clone()),
	)
	return out
}
