// Package oracle is the paper's §2.3 correctness step — execute Plan(q),
// execute an alternative, compare — in one place. Every campaign (suite
// validation, mutation, fuzzing, small-scope verification) holds one Runner
// and asks it three questions: Base (run the reference plan), Edge (run
// another plan for the same query and compare) — both on the batch engine,
// the one engine campaigns execute on — and Cross (replay the query on the
// reference engine and compare). All three answer in one verdict
// taxonomy, so what counts as a check, a skip or a finding is decided here
// and not per campaign.
package oracle

import (
	"errors"
	"fmt"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/physical"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rules"
)

// Options is everything a campaign can say about how its plans execute.
type Options struct {
	// Backend names the independent engine Cross replays base queries on:
	// "ref", the reference engine, or empty to disable the cross-check.
	Backend string
	// Cache memoizes executions; nil executes directly. Outcomes are
	// identical either way.
	Cache *rescache.Cache
	// MaxRows > 0 caps a buffered result and MaxWork > 0 the total rows all
	// operators produce; a trip on either side of a comparison is Capped.
	MaxRows int
	MaxWork int64
}

// WorkBudget is the MaxWork of the campaigns that run plans over full-size
// databases — fuzz's and every suite execution: 2e6 rows produced by all
// operators of one plan execution, rescans included. A wrong plan can be a
// cross product whose output no row cap sees coming; this stops it before it
// takes the process's memory.
const WorkBudget = 2e6

// Verdict is the outcome of one comparison.
type Verdict uint8

// The taxonomy. Only Match, Mismatch and Undetermined are checks that ran;
// Identical and Capped executed nothing comparable and must never be counted
// as passing.
const (
	// Identical: the alternative is structurally the base plan (paper
	// footnote 1), or the cross-check backend is off. Nothing was executed —
	// not even a cache lookup.
	Identical Verdict = iota + 1
	// Capped: the alternative tripped MaxRows or MaxWork. Work accounting is
	// engine-specific, so a trip bounds cost and never yields a verdict
	// (budget parity).
	Capped
	Match
	// Mismatch: the results differ, or the backend failed to execute a query
	// the primary engine ran (engines must agree on error-vs-OK); Detail says
	// which.
	Mismatch
	// Undetermined: the results differ but a LIMIT without a total order
	// permits it.
	Undetermined
)

// Compared reports whether the verdict comes from a comparison that ran —
// the only kind a campaign may count as a check. The zero Verdict (no
// outcome at all) has not.
func (v Verdict) Compared() bool { return v >= Match }

// Outcome is a verdict plus the comparator's diagnosis for Mismatch and
// Undetermined.
type Outcome struct {
	Verdict Verdict
	Detail  string
}

// Plan is a physical plan with what every execution and comparison of it
// needs, computed once however many databases or bases it meets: the
// fingerprint, the root ordering contract, and the program Base and Edge run
// — whose operator tree is compiled by the first execution that is not a
// cache hit, so a skipped or cached plan compiles nothing.
type Plan struct {
	Expr  *physical.Expr
	Hash  string
	Order exec.PlanOrder
	prog  *exec.Program
}

// Prepare fingerprints a plan, derives its root ordering contract and readies
// it for execution.
func Prepare(e *physical.Expr) Plan {
	return Plan{Expr: e, Hash: e.Hash(), Order: exec.RootOrder(e), prog: exec.Compile(engine, e)}
}

// PrepareCross prepares a query's logical tree for Cross: its canonical
// lowering (exec.Lower), readied for the reference engine. Lower once per
// query, however many databases the query meets.
func PrepareCross(tree *logical.Expr) Plan {
	e := exec.Lower(tree)
	return Plan{Expr: e, Hash: e.Hash(), Order: exec.RootOrder(e), prog: exec.Compile(backend, e)}
}

// Base is one executed Plan(q): the reference side of every Edge and Cross
// for that query. It remembers its database, so the other side cannot run
// against a different one. Rows may be shared with the cache and are
// read-only.
type Base struct {
	Plan
	Rows []datum.Row
	cat  *catalog.Catalog
}

// Runner executes and compares under one set of Options. It is immutable
// after New and shared by a campaign's workers.
type Runner struct {
	opts Options
}

// engine is what Base and Edge execute on; backend is what Cross replays on.
const (
	engine  = exec.EngineBatch
	backend = exec.EngineRef
)

// New checks the options. The one error is a Backend other than "ref": the
// reference engine is the only engine that shares no code with the one Base
// and Edge run on, and a check that was asked for must not pass vacuously.
func New(opts Options) (*Runner, error) {
	if opts.Backend != "" && opts.Backend != backend.String() {
		return nil, fmt.Errorf("oracle: unknown backend %q (the one cross-check backend is %q)", opts.Backend, backend.String())
	}
	return &Runner{opts: opts}, nil
}

// HasBackend reports whether Cross has an independent backend to replay on.
func (r *Runner) HasBackend() bool { return r.opts.Backend != "" }

// Base executes the reference plan against a database. The error is
// exec.ErrRowLimit when a cap tripped, else the engine's execution error.
func (r *Runner) Base(cat *catalog.Catalog, p Plan) (Base, error) {
	rows, err := r.opts.Cache.RunProgram(p.prog, cat, r.opts.MaxRows, r.opts.MaxWork)
	if err != nil {
		return Base{}, err
	}
	return Base{Plan: p, Rows: rows, cat: cat}, nil
}

// Edge executes an alternative plan for base's query and compares. The
// identical-plan skip sits ahead of the cache: a skip costs no lookup, so
// hit/miss statistics count real executions only. An execution error other
// than a cap is returned as is — what it means is the campaign's call.
func (r *Runner) Edge(base *Base, p Plan) (Outcome, error) {
	if p.Hash == base.Hash {
		return Outcome{Verdict: Identical}, nil
	}
	rows, err := r.opts.Cache.RunProgram(p.prog, base.cat, r.opts.MaxRows, r.opts.MaxWork)
	if err != nil && !errors.Is(err, exec.ErrRowLimit) {
		return Outcome{}, err
	}
	return compare(base, rows, p.Order, err), nil
}

// Cross replays base's query on the reference engine and compares. The
// engine evaluates the pre-optimizer logical tree, which p holds lowered
// (PrepareCross), so an optimizer fault in the base plan cannot replay
// itself into the check. The error reports misuse (a plan not prepared for
// the reference engine), never an execution failure.
func (r *Runner) Cross(base *Base, p Plan) (Outcome, error) {
	if !r.HasBackend() {
		return Outcome{Verdict: Identical}, nil
	}
	if p.prog == nil || p.prog.Engine() != backend {
		return Outcome{}, fmt.Errorf("oracle: a cross-check runs a plan PrepareCross readied for backend %v", backend)
	}
	rows, err := r.opts.Cache.RunProgram(p.prog, base.cat, r.opts.MaxRows, r.opts.MaxWork)
	if err != nil && !errors.Is(err, exec.ErrRowLimit) {
		return Outcome{Verdict: Mismatch, Detail: fmt.Sprintf("backend %v execution: %v", backend, err)}, nil
	}
	return compare(base, rows, p.Order, err), nil
}

// compare maps an alternative's execution (err is nil or a cap) onto the
// taxonomy with the order-aware comparator.
func compare(base *Base, rows []datum.Row, order exec.PlanOrder, err error) Outcome {
	if err != nil {
		return Outcome{Verdict: Capped}
	}
	switch v, detail := exec.CompareResults(base.Rows, base.Order, rows, order); v {
	case exec.VerdictMismatch:
		return Outcome{Verdict: Mismatch, Detail: detail}
	case exec.VerdictUndetermined:
		return Outcome{Verdict: Undetermined, Detail: detail}
	}
	return Outcome{Verdict: Match}
}

// Repro returns the global part of a reproducer line —
// "qtrtest [-db D] [-scale S] [-ext] [-backend B] [-seed N]" — to which each
// campaign appends its subcommand and that subcommand's flags. A flag is
// read from what the campaign ran on, never from a label beside it: db names
// the catalog, which knows the row -scale it was loaded at; the registry
// holds the extension pack only under -ext; backend is the cross-check
// Options.Backend. An empty db, a nil catalog and a nil seed name no -db,
// -scale and -seed: a random catalog comes from the seed, not from -db, and
// verify's tiny databases and sweep come from neither.
func Repro(db string, cat *catalog.Catalog, reg *rules.Registry, backend string, seed *int64) string {
	line := "qtrtest"
	if db != "" {
		line += " -db " + db
	}
	if cat != nil {
		if s := cat.ScaleRows(); s != 0 && s != 1 {
			line += fmt.Sprintf(" -scale %g", s)
		}
	}
	if reg.HasExtensions() {
		line += " -ext"
	}
	if backend != "" {
		line += " -backend " + backend
	}
	if seed != nil {
		line += fmt.Sprintf(" -seed %d", *seed)
	}
	return line
}
