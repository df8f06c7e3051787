// Package verify implements a small-scope semantic verifier for
// transformation rules: for every rule it enumerates canonical
// instantiations of the rule's pattern over a tiny fixed schema, pairs each
// instantiation with every abstract database up to a bounded size (small
// integer domains, NULLs, duplicate rows), executes both sides of the
// rewrite with the execution engine, and compares the results under the
// correct sensitivity (multiset by default, positional when a sort pins the
// order, undetermined for LIMIT without order — exec.CompareResults).
//
// The check is static in the campaign sense: no query generation, no
// optimizer search, no randomness — the same bounded-exhaustive sweep every
// run, byte-identical at any worker count. Under the small-scope hypothesis
// (most rule bugs already show up on tiny inputs), a rule that survives
// every instantiation×database pair is very likely sound; a rule that fails
// any pair is definitely broken, and the first failing pair — databases are
// enumerated smallest-first — is emitted as a minimal replayable witness.
//
// Soundness caveat: the sweep is not exhaustive over small databases. It
// covers the operator payload vocabulary and ≤3 tables, but each table's
// contents come from a hand-picked vocabulary (db.go): 6 plain and 4 keyed
// contents of ≤3 rows over {NULL,0,1,2}, trimmed to 3 and 2 past the second
// table. A bug that needs contents outside that list — {(N,N)} or
// {(1,1),(1,1)}, say — or a larger scope — wider schemas, deeper predicate
// nesting, overflow-range arithmetic — is outside the net. The fuzzing and
// mutation campaigns remain the backstop for that tail.
package verify

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"qtrtest/internal/core/oracle"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/par"
	"qtrtest/internal/physical"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rules"
	"qtrtest/internal/scalar"
)

// ReportSchema identifies the report's JSON shape.
const ReportSchema = "qtrtest-verify/v1"

// Execution caps per plan run. The databases are tiny, so any plan that
// trips these is pathological (e.g. a fault turned a join into a repeated
// cross product under rescanning); such runs are skipped, not failed.
const (
	maxResultRows = 256
	maxWorkRows   = 4096
)

// Config tunes one verification run.
type Config struct {
	// Registry is the rule set to verify; nil means the default registry.
	// The report and repro lines name its mutant (Registry.Mutant) and its
	// rule packs (-ext, -eet) as the registry holds them.
	Registry *rules.Registry
	// Rules restricts the run to the given rule ids (default: all).
	Rules []rules.ID
	// Workers sizes the worker pool (0 = GOMAXPROCS); the report is
	// byte-identical for every value.
	Workers int
	// Cache, when non-nil, memoizes plan executions: instantiations repeat
	// across rules and a table tuple's databases share their catalogs, so a
	// (plan, database) pair executes once per cache instead of once per
	// rule. Measured, that does not pay here — 16 % of a sweep's lookups
	// hit, a hit saves an execution of a few microseconds, and the cache
	// keeps every result alive for the collector to scan: `qtrtest verify`
	// took 0.073 s with a cache and 0.045 s without (DESIGN.md §14), so the
	// CLI passes none. Reports are byte-identical with and without it.
	Cache *rescache.Cache
	// Backend names the independent execution backend, "ref" (the reference
	// engine); "" disables it. When set, every base execution of the sweep is additionally replayed there
	// and compared under the same order-aware oracle, so an engine fault that
	// corrupts both sides of a rewrite identically still surfaces.
	Backend string
}

// Finding is one verified rule failure: the smallest failing
// instantiation×database pair with both plans and a replay line.
type Finding struct {
	Rule         int    `json:"rule"`
	RuleName     string `json:"rule_name"`
	RuleKind     string `json:"rule_kind"`
	Instance     string `json:"instance"`
	Database     string `json:"database"`
	DatabaseRows int    `json:"database_rows"`
	BasePlan     string `json:"base_plan"`
	AltPlan      string `json:"alt_plan"`
	Detail       string `json:"detail"`
	// FailingPairs counts every failing instantiation×database×substitute
	// triple for the rule; the finding itself renders only the first.
	FailingPairs int    `json:"failing_pairs"`
	Repro        string `json:"repro"`
}

// RuleStat is one rule's sweep accounting.
type RuleStat struct {
	Rule         int    `json:"rule"`
	Name         string `json:"name"`
	Kind         string `json:"kind"`
	Instances    int    `json:"instances"`
	Pairs        int    `json:"pairs"`
	Executed     int    `json:"executed"`
	Identical    int    `json:"identical"`
	Undetermined int    `json:"undetermined"`
	Skipped      int    `json:"skipped"`
	Failing      int    `json:"failing"`
	// BackendChecks counts base executions replayed on the cross-check
	// backend (Config.Backend); omitted when the check is off.
	BackendChecks int  `json:"backend_checks,omitempty"`
	Truncated     bool `json:"truncated,omitempty"`
}

// Report is a verification run's deterministic outcome.
type Report struct {
	Schema       string `json:"schema"`
	Mutant       string `json:"mutant,omitempty"`
	EET          bool   `json:"eet,omitempty"`
	Backend      string `json:"backend,omitempty"`
	Rules        int    `json:"rules"`
	Exercised    int    `json:"exercised"`
	Pairs        int    `json:"pairs"`
	Executed     int    `json:"executed"`
	Identical    int    `json:"identical"`
	Undetermined int    `json:"undetermined"`
	Skipped      int    `json:"skipped"`
	// BackendChecks counts base executions replayed and compared on the
	// cross-check backend; omitted when Config.Backend was empty.
	BackendChecks int        `json:"backend_checks,omitempty"`
	Findings      []Finding  `json:"findings"`
	Stats         []RuleStat `json:"stats"`
	// ext records that the registry held the extension pack, for the text
	// header only: the JSON form has no field for it, so its pins hold.
	ext bool
}

// JSON renders the report; the output is byte-identical across runs and
// worker counts.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Print renders the report for terminals: a header line, the selected rules
// no instantiation exercised (when there are any), then each finding.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "verify: registry=%s rules=%d exercised=%d pairs=%d executed=%d identical=%d undetermined=%d skipped=%d findings=%d\n",
		r.registryLabel(), r.Rules, r.Exercised, r.Pairs, r.Executed, r.Identical, r.Undetermined, r.Skipped, len(r.Findings))
	var unexercised []string
	for _, s := range r.Stats {
		if s.Instances == 0 {
			unexercised = append(unexercised, fmt.Sprintf("#%d %s", s.Rule, s.Name))
		}
	}
	if len(unexercised) > 0 {
		fmt.Fprintf(w, "unexercised: %s\n", strings.Join(unexercised, ", "))
	}
	for _, f := range r.Findings {
		fmt.Fprintf(w, "\nFINDING rule #%d %s (%s): %s\n", f.Rule, f.RuleName, f.RuleKind, f.Detail)
		fmt.Fprintf(w, "  database: %s (%d rows)\n", f.Database, f.DatabaseRows)
		fmt.Fprintf(w, "  instance:\n%s", indent(f.Instance, "    "))
		fmt.Fprintf(w, "  base plan:\n%s", indent(f.BasePlan, "    "))
		fmt.Fprintf(w, "  alt plan:\n%s", indent(f.AltPlan, "    "))
		fmt.Fprintf(w, "  failing pairs: %d\n", f.FailingPairs)
		fmt.Fprintf(w, "  repro: %s\n", f.Repro)
	}
}

func (r *Report) registryLabel() string {
	label := "default"
	if r.Mutant != "" {
		label = "mutant:" + r.Mutant
	}
	if r.ext {
		label += "+ext"
	}
	if r.EET {
		label += "+eet"
	}
	if r.Backend != "" {
		label += " backend=" + r.Backend
	}
	return label
}

func indent(s, pad string) string {
	s = strings.TrimRight(s, "\n")
	if s == "" {
		return ""
	}
	return pad + strings.ReplaceAll(s, "\n", "\n"+pad) + "\n"
}

// Run verifies every selected rule of the registry and returns the report.
// The only error conditions are configuration mistakes (an unknown rule id);
// rule failures are reported as findings, not errors.
func Run(cfg Config) (*Report, error) {
	if cfg.Registry == nil {
		cfg.Registry = rules.DefaultRegistry()
	}
	reg := cfg.Registry
	rn, err := oracle.New(oracle.Options{
		Backend: cfg.Backend, Cache: cfg.Cache, MaxRows: maxResultRows, MaxWork: maxWorkRows,
	})
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	targets := reg.All()
	if len(cfg.Rules) > 0 {
		want := make(map[rules.ID]bool, len(cfg.Rules))
		for _, id := range cfg.Rules {
			if _, err := reg.ByID(id); err != nil {
				return nil, fmt.Errorf("verify: %w", err)
			}
			want[id] = true
		}
		var sel []rules.Rule
		for _, r := range targets {
			if want[r.ID()] {
				sel = append(sel, r)
			}
		}
		targets = sel
	}
	results := make([]*ruleResult, len(targets))
	par.ForEach(cfg.Workers, len(targets), func(i int) {
		results[i] = checkRule(targets[i], &cfg, rn)
	})
	rep := &Report{
		Schema: ReportSchema, Mutant: reg.Mutant(), EET: reg.HasEET(), Backend: cfg.Backend,
		Rules: len(targets), ext: reg.HasExtensions(),
	}
	for _, res := range results {
		rep.Stats = append(rep.Stats, res.stat)
		rep.Pairs += res.stat.Pairs
		rep.Executed += res.stat.Executed
		rep.Identical += res.stat.Identical
		rep.Undetermined += res.stat.Undetermined
		rep.Skipped += res.stat.Skipped
		rep.BackendChecks += res.stat.BackendChecks
		if res.stat.Instances > 0 {
			rep.Exercised++
		}
		if res.finding != nil {
			res.finding.FailingPairs = res.stat.Failing
			rep.Findings = append(rep.Findings, *res.finding)
		}
	}
	return rep, nil
}

// ruleResult is one rule's private accumulator; the driver merges them in
// registry order, which is what makes the report worker-count independent.
type ruleResult struct {
	cfg     *Config
	oracle  *oracle.Runner
	stat    RuleStat
	finding *Finding
	// ctx and its memo serve every instantiation of the rule in turn, Reset
	// for each: the trees and plans an instantiation compares are copies
	// (extractBound, ExtractFirst, the candidates themselves), so nothing of
	// one outlives the memo's next Reset.
	ctx rules.Context
}

func checkRule(r rules.Rule, cfg *Config, rn *oracle.Runner) *ruleResult {
	res := &ruleResult{cfg: cfg, oracle: rn, stat: RuleStat{
		Rule: int(r.ID()), Name: r.Name(), Kind: r.Kind().String(),
	}, ctx: rules.Context{Memo: new(memo.Memo)}}
	insts, truncated := enumerate(r.Pattern())
	res.stat.Truncated = truncated
	for _, inst := range insts {
		baseTree, base, alts := res.plans(r, inst)
		if len(alts) == 0 {
			continue
		}
		res.stat.Instances++
		res.comparePlans(r, inst, baseTree, base, alts)
	}
	return res
}

// plans returns what one instantiation compares — the base tree, its plan
// and the rule's alternatives to it — or no alternatives when the rule does
// not fire there.
func (res *ruleResult) plans(r rules.Rule, inst *instance) (*logical.Expr, *physical.Expr, []*physical.Expr) {
	switch rr := r.(type) {
	case rules.ExplorationRule:
		return res.explorationPlans(rr, inst)
	case rules.ImplementationRule:
		return res.implementationPlans(rr, inst)
	}
	return nil, nil, nil
}

// explorationPlans applies the rule to one instantiation inside a private
// memo; every substitute is an alternative to the original tree. Both sides
// are wrapped in a canonical projection over the root group's sorted column
// set before lowering: substitutes agree with the original on the output
// column set but may reorder it.
func (res *ruleResult) explorationPlans(r rules.ExplorationRule, inst *instance) (*logical.Expr, *physical.Expr, []*physical.Expr) {
	m := res.ctx.Memo
	m.Reset(inst.md)
	g := m.Insert(inst.tree)
	root := m.Group(g).Exprs[0]
	var altTrees []*logical.Expr
	for _, bnd := range rules.Bind(m, root, r.Pattern()) {
		for _, sub := range r.Apply(&res.ctx, bnd) {
			if sub != nil {
				altTrees = append(altTrees, extractBound(m, sub))
			}
		}
	}
	if len(altTrees) == 0 {
		return nil, nil, nil
	}
	outCols := m.Group(g).Cols.Sorted()
	baseTree := wrapProject(inst.tree, outCols)
	alts := make([]*physical.Expr, len(altTrees))
	for i, t := range altTrees {
		alts[i] = exec.Lower(wrapProject(t, outCols))
	}
	return baseTree, exec.Lower(baseTree), alts
}

// implementationPlans asks the rule for its physical candidates over one
// instantiation; each is an alternative to the canonical lowering of the
// whole tree. Candidates come back as payload-only root nodes (children
// unset, 1:1 with the memo expression's kid groups); the canonical lowering
// of each kid group's tree is grafted underneath.
func (res *ruleResult) implementationPlans(r rules.ImplementationRule, inst *instance) (*logical.Expr, *physical.Expr, []*physical.Expr) {
	m := res.ctx.Memo
	m.Reset(inst.md)
	res.ctx.RewindKeys()
	g := m.Insert(inst.tree)
	root := m.Group(g).Exprs[0]
	var alts []*physical.Expr
	for _, cand := range r.Implement(&res.ctx, root) {
		if cand == nil {
			continue
		}
		res.ctx.KeepKeys(cand)
		cand.Children = make([]*physical.Expr, len(root.Kids))
		for i, kid := range root.Kids {
			cand.Children[i] = exec.Lower(m.ExtractFirst(kid))
		}
		alts = append(alts, cand)
	}
	if len(alts) == 0 {
		return nil, nil, nil
	}
	return inst.tree, exec.Lower(inst.tree), alts
}

// wrapProject puts a pure column-reference projection over the tree, fixing
// the output column ORDER to the given list. Substitutes in a memo group
// agree with the original on the output column SET but may reorder it (a
// commuted join emits right++left); comparing through a canonical
// projection makes the multiset oracle see both sides in one layout.
func wrapProject(tree *logical.Expr, cols []scalar.ColumnID) *logical.Expr {
	projs := make([]logical.ProjItem, len(cols))
	for i, c := range cols {
		projs[i] = logical.ProjItem{Out: c, E: scalar.Ref(c)}
	}
	return &logical.Expr{Op: logical.OpProject, Projs: projs, Children: []*logical.Expr{tree}}
}

// extractBound rebuilds the logical tree a substitute denotes: bound nodes
// contribute their payloads, and leaf references pull the referenced group's
// original expression out of the memo.
func extractBound(m *memo.Memo, b *memo.BoundExpr) *logical.Expr {
	if b.IsLeaf() {
		return m.ExtractFirst(b.Group)
	}
	node := m.Payload(b)
	node.Children = make([]*logical.Expr, len(b.Kids))
	for i, k := range b.Kids {
		node.Children[i] = extractBound(m, k)
	}
	return &node
}

// comparePlans sweeps every database over the live (structurally different)
// substitutes. A substitute whose plan hash equals the base plan's is
// equivalent by construction and never executed — that is what lets the
// pristine identity-shaped implementation rules (SelectToFilter, SortToSort,
// LimitToLimit, ...) verify with zero executions while their mutated
// variants, whose payloads differ, still get the full sweep.
func (res *ruleResult) comparePlans(r rules.Rule, inst *instance, baseTree *logical.Expr, basePlan *physical.Expr, alts []*physical.Expr) {
	base := oracle.Prepare(basePlan)
	var cross oracle.Plan
	if res.oracle.HasBackend() {
		cross = oracle.PrepareCross(baseTree)
	}
	var live []oracle.Plan
	for _, alt := range alts {
		if alt.Hash() == base.Hash {
			res.stat.Pairs++
			res.stat.Identical++
			continue
		}
		live = append(live, oracle.Prepare(alt))
	}
	if len(live) == 0 && !res.oracle.HasBackend() {
		return
	}
	for _, db := range enumerateDatabases(inst.tables) {
		bx, err := res.oracle.Base(db.cat, base)
		if err != nil {
			// The base side is the canonical lowering; only a budget trip
			// can fail it, and then no comparison on this database is
			// meaningful.
			res.stat.Pairs += len(live)
			res.stat.Skipped += len(live)
			continue
		}
		if res.oracle.HasBackend() {
			out, err := res.oracle.Cross(&bx, cross)
			if err != nil {
				out = oracle.Outcome{Verdict: oracle.Mismatch, Detail: err.Error()}
			}
			out.Detail = "backend cross-check: " + out.Detail
			if res.judge(out, r, inst, db, basePlan, basePlan) {
				res.stat.BackendChecks++
			}
		}
		for _, alt := range live {
			res.stat.Pairs++
			out, err := res.oracle.Edge(&bx, alt)
			if err != nil {
				res.fail(r, inst, db, basePlan, alt.Expr, "execution error: "+err.Error())
				continue
			}
			if res.judge(out, r, inst, db, basePlan, alt.Expr) {
				res.stat.Executed++
			} else {
				res.stat.Skipped++
			}
		}
	}
}

// judge books one executed comparison — a mismatch fails the pair, an
// undetermined one is counted — and reports whether there was one: false
// means the alternative was capped.
func (res *ruleResult) judge(out oracle.Outcome, r rules.Rule, inst *instance, db database, base, alt *physical.Expr) bool {
	switch out.Verdict {
	case oracle.Mismatch:
		res.fail(r, inst, db, base, alt, out.Detail)
	case oracle.Undetermined:
		res.stat.Undetermined++
	}
	return out.Verdict.Compared()
}

// fail records a failing pair; only the first — smallest database, earliest
// instantiation — is rendered as the rule's witness.
func (res *ruleResult) fail(r rules.Rule, inst *instance, db database, base, alt *physical.Expr, detail string) {
	res.stat.Failing++
	if res.finding != nil {
		return
	}
	reg := res.cfg.Registry
	repro := oracle.Repro("", nil, reg, res.cfg.Backend, nil) + " verify"
	if m := reg.Mutant(); m != "" {
		repro += " -mutant " + m
	}
	if reg.HasEET() {
		repro += " -eet"
	}
	repro += fmt.Sprintf(" -rules %d", r.ID())
	res.finding = &Finding{
		Rule:         int(r.ID()),
		RuleName:     r.Name(),
		RuleKind:     r.Kind().String(),
		Instance:     inst.tree.String(),
		Database:     db.label(),
		DatabaseRows: db.total,
		BasePlan:     base.String(),
		AltPlan:      alt.String(),
		Detail:       detail,
		Repro:        repro,
	}
}
