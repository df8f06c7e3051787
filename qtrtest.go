// Package qtrtest is a framework for testing query transformation rules,
// reproducing Elmongui, Narasayya and Ramamurthy, "A Framework for Testing
// Query Transformation Rules", SIGMOD 2009.
//
// It bundles a transformation-rule-based query optimizer (memo search over
// 30 exploration + 17 implementation rules), a SQL front end, an in-memory
// execution engine with a TPC-H test database, and — on top — the paper's
// two contributions:
//
//   - rule-targeted query generation: given a rule or rule pair, generate a
//     SQL query that exercises it, by instantiating the rule's pattern
//     (PATTERN) or stochastically (RANDOM);
//   - test-suite compression: build the bipartite rule/query graph and
//     minimize the cost of executing a correctness suite with the
//     SetMultiCover or TopKIndependent algorithms, the latter pruned by
//     cost monotonicity.
//
// Quick start:
//
//	db := qtrtest.OpenTPCH(1.0, 42)
//	gen, _ := db.NewGenerator(qtrtest.GenConfig{Seed: 1})
//	q, _ := gen.GeneratePattern(14) // exercise PushGroupByBelowJoin
//	fmt.Println(q.SQL)
package qtrtest

import (
	"fmt"
	"strings"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/core/qgen"
	"qtrtest/internal/core/suite"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/fuzz"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/mutate"
	"qtrtest/internal/opt"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rulecheck"
	"qtrtest/internal/rules"
	"qtrtest/internal/scalar"
	"qtrtest/internal/verify"
)

// Re-exported types: the full API of the underlying packages is available
// through these aliases without importing internal paths.
type (
	// Catalog is the test database (schema, data, statistics).
	Catalog = catalog.Catalog
	// Rule is one transformation rule (exploration or implementation).
	Rule = rules.Rule
	// RuleID identifies a rule.
	RuleID = rules.ID
	// RuleSet is a set of rule IDs.
	RuleSet = rules.Set
	// RuleKind distinguishes exploration from implementation rules.
	RuleKind = rules.Kind
	// Registry is the optimizer's rule set R.
	Registry = rules.Registry
	// Pattern is a rule pattern tree.
	Pattern = rules.Pattern
	// Optimizer is the rule-based query optimizer.
	Optimizer = opt.Optimizer
	// OptimizeOptions configures one optimization (disabled rules etc).
	OptimizeOptions = opt.Options
	// OptimizeResult carries the plan, cost and exercised RuleSet; Without(R)
	// derives Plan(q,¬R) from the memo it was found in, until the optional
	// Release hands that memo back to the Optimizer.
	OptimizeResult = opt.Result
	// Generator produces rule-targeted queries (§3).
	Generator = qgen.Generator
	// GenConfig tunes a Generator.
	GenConfig = qgen.Config
	// GeneratedQuery is one generated test case.
	GeneratedQuery = qgen.Query
	// Graph is the bipartite rule/query test-suite graph (§4).
	Graph = suite.Graph
	// Target is a rule or rule pair under test.
	Target = suite.Target
	// Solution is a compressed test suite.
	Solution = suite.Solution
	// Report is the outcome of running a test suite.
	Report = suite.Report
	// SuiteConfig configures test-suite generation.
	SuiteConfig = suite.GenConfig
	// Row is a result row.
	Row = datum.Row
	// Datum is a single SQL value: a kind and one payload word. Read it
	// through its accessors; a string's is Str.
	Datum = datum.Datum
)

// TPCHConfig re-exports the TPC-H generator configuration.
type TPCHConfig = catalog.TPCHConfig

// Extensibility surface: everything needed to define new transformation
// rules (see examples/bughunt for a worked fault-injection example).
type (
	// LogicalExpr is a logical operator tree node.
	LogicalExpr = logical.Expr
	// LogicalOp enumerates logical operators.
	LogicalOp = logical.Op
	// ScalarExpr is a scalar expression.
	ScalarExpr = scalar.Expr
	// BoundExpr is the rule input/output currency: a pattern binding whose
	// leaves reference memo groups.
	BoundExpr = memo.BoundExpr
	// RuleContext gives rules access to the memo and query metadata.
	RuleContext = rules.Context
)

// Rule-definition helpers, re-exported from the rules and memo packages.
var (
	// NewExplorationRule defines a logical→logical rule.
	NewExplorationRule = rules.NewExplorationRule
	// NewExplorationRuleProducing additionally declares the rule's output
	// shapes, so the static analyzer can see through it.
	NewExplorationRuleProducing = rules.NewExplorationRuleProducing
	// RegistryWith extends the default registry with custom rules.
	RegistryWith = rules.RegistryWith
	// RegistryWithExtensions adds the schema-dependent extension rules
	// (FK join elimination, OR expansion, select splitting; ids 31-34).
	RegistryWithExtensions = rules.RegistryWithExtensions
	// RegistryWithEET adds the expression-level equivalence rewrite
	// candidates lifted from the scalar EET catalog (ids 41-47).
	RegistryWithEET = rules.RegistryWithEET
	// EETRules returns the EET exploration-rule pack itself.
	EETRules = rules.EETRules
	// NewBound builds a substitute node over bound children.
	NewBound = memo.NewBound
	// PatternNode and PatternAny build rule patterns.
	PatternNode = rules.P
	PatternAny  = rules.Any
)

// DB bundles a catalog with an optimizer over the default rule registry; it
// is the entry point for the whole framework.
type DB struct {
	Catalog   *Catalog
	Registry  *Registry
	Optimizer *Optimizer
}

// OpenTPCH creates the default test database: a deterministic scaled-down
// TPC-H instance, with the full 47-rule registry.
func OpenTPCH(scaleRows float64, seed int64) *DB {
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: scaleRows, Seed: seed})
	return Open(cat, rules.DefaultRegistry())
}

// OpenStar creates the secondary test database: a retail star schema (one
// fact table, four dimensions) matching §6.1's "other databases with
// different schemas".
func OpenStar(scaleRows float64, seed int64) *DB {
	cat := catalog.LoadStar(catalog.StarConfig{ScaleRows: scaleRows, Seed: seed})
	return Open(cat, rules.DefaultRegistry())
}

// Open wraps an arbitrary catalog and rule registry.
func Open(cat *Catalog, reg *Registry) *DB {
	return &DB{Catalog: cat, Registry: reg, Optimizer: opt.New(reg, cat)}
}

// Query parses, binds, optimizes and executes a SQL query, returning the
// rows and result column names.
func (db *DB) Query(sqlText string) ([]Row, []string, error) {
	bound, err := bind.BindSQL(sqlText, db.Catalog)
	if err != nil {
		return nil, nil, err
	}
	res, err := db.Optimizer.Optimize(bound.Tree, bound.MD, opt.Options{})
	if err != nil {
		return nil, nil, err
	}
	rows, err := exec.Run(res.Plan, db.Catalog)
	if err != nil {
		return nil, nil, err
	}
	return rows, bound.OutNames, nil
}

// Optimize returns the optimization result (plan, cost, RuleSet) for a SQL
// query, with the given rules disabled. A rule id the registry does not hold
// is an error.
func (db *DB) Optimize(sqlText string, disabled ...RuleID) (*OptimizeResult, error) {
	for _, id := range disabled {
		if _, err := db.Registry.ByID(id); err != nil {
			return nil, err
		}
	}
	bound, err := bind.BindSQL(sqlText, db.Catalog)
	if err != nil {
		return nil, err
	}
	return db.Optimizer.Optimize(bound.Tree, bound.MD, opt.Options{Disabled: rules.NewSet(disabled...)})
}

// QueryDisabled executes Plan(q, ¬R): the plan obtained with the given
// rules disabled (§2.2).
func (db *DB) QueryDisabled(sqlText string, disabled ...RuleID) ([]Row, error) {
	res, err := db.Optimize(sqlText, disabled...)
	if err != nil {
		return nil, err
	}
	return exec.Run(res.Plan, db.Catalog)
}

// EqualResults reports whether two result sets are equal as multisets — the
// correctness oracle of §2.3.
func EqualResults(a, b []Row) bool { return exec.EqualMultisets(a, b) }

// Mutation-testing surface: seeded rule faults that validate the
// correctness oracle itself (see internal/mutate).
type (
	// Mutant is one injected rule fault.
	Mutant = mutate.Mutant
	// MutantKind names a fault family (e.g. flip-sort-dir).
	MutantKind = mutate.Kind
	// MutationConfig tunes a mutation campaign.
	MutationConfig = mutate.Config
	// MutationScore is a campaign's report: which algorithms' suites caught
	// which injected faults.
	MutationScore = mutate.Score
)

// Mutation-campaign helpers, re-exported from the mutate package.
var (
	// Mutants returns the shipped mutant catalog.
	Mutants = mutate.Mutants
	// MutantsByKind filters the catalog by fault kind.
	MutantsByKind = mutate.ByKind
)

// MutationCampaign runs the full pipeline (generate, compress, execute,
// compare) once per mutant against this database and reports the mutation
// score per suite algorithm.
func (db *DB) MutationCampaign(cfg MutationConfig) (*MutationScore, error) {
	return mutate.Run(db.Catalog, cfg)
}

// Fuzzing surface, re-exported from the fuzz package.
type (
	// FuzzConfig tunes a fuzz campaign (seed, query count, oracles' caps).
	FuzzConfig = fuzz.Config
	// FuzzReport is a campaign's deterministic outcome.
	FuzzReport = fuzz.Report
	// FuzzFinding is one reported fault with its shrunk reproducer.
	FuzzFinding = fuzz.Finding
)

// Fuzzing helpers, re-exported from the fuzz package.
var (
	// RandomCatalog builds the seeded random test database the fuzzer uses
	// when no catalog is supplied (qtrtest fuzz -randcat).
	RandomCatalog = fuzz.RandomCatalog
	// FuzzRun runs a campaign from a raw config (nil Catalog selects the
	// random catalog); db.Fuzz is the database-bound form.
	FuzzRun = fuzz.Run
)

// Fuzz runs a plan-guided metamorphic fuzz campaign against this database:
// random query trees, the differential Plan(q) vs Plan(q,¬R) oracle plus a
// metamorphic-rewrite oracle, coverage-steered generation, and shrunk
// reproducers for every finding. The catalog and registry default to the
// receiver's; cfg.Catalog/cfg.Registry override them (a nil cfg.Catalog with
// cfg.DB == "" would otherwise select the random catalog).
func (db *DB) Fuzz(cfg FuzzConfig) (*FuzzReport, error) {
	if cfg.Catalog == nil {
		cfg.Catalog = db.Catalog
	}
	if cfg.Registry == nil {
		cfg.Registry = db.Registry
	}
	return fuzz.Run(cfg)
}

// Small-scope semantic verification surface (internal/verify): the
// bounded-exhaustive rule verifier behind `qtrtest verify`, which executes
// both sides of every rule rewrite over tiny databases and compares results
// under the §2.3 oracle's sensitivity.
type (
	// VerifyConfig tunes one verification run (registry, rule filter,
	// workers).
	VerifyConfig = verify.Config
	// VerifyReport is a verification run's deterministic outcome.
	VerifyReport = verify.Report
	// VerifyFinding is one verified rule failure with its minimal witness.
	VerifyFinding = verify.Finding
)

// VerifyRules runs the small-scope semantic verifier over a registry.
var VerifyRules = verify.Run

// RegistryExtend appends extra rules to any base registry (a mutant registry,
// an extended one), unlike RegistryWith which always starts from the default
// rule set; a mutant registry stays one.
func RegistryExtend[R Rule](base *Registry, extra ...R) *Registry {
	return rules.Extend(base, extra...)
}

// Result-cache surface (internal/rescache): the campaign-wide plan-result
// cache the CLI's mutate and the benchmark harness use. Each campaign — suite
// validation (Graph.SetCache), mutation (MutationConfig.Cache), fuzzing
// (FuzzConfig.Cache), verification (VerifyConfig.Cache) — hands its cache to
// the one oracle.Runner it executes and compares through, and one cache can
// serve any mix of them because entries are keyed by plan fingerprint,
// catalog identity, execution caps and engine alone. Every campaign's report
// is byte-identical with and without a cache, at any worker count.
type (
	// ResultCache memoizes plan-execution outcomes (rows or error) across a
	// campaign. A nil *ResultCache is valid and falls through to direct
	// execution.
	ResultCache = rescache.Cache
	// ResultCacheStats is a point-in-time cache statistics snapshot.
	ResultCacheStats = rescache.Stats
)

// NewResultCache builds a bounded result cache; maxBytes <= 0 selects the
// default budget.
var NewResultCache = rescache.New

// RuleSetOf returns RuleSet(q): the rules exercised when optimizing the
// query (§2.2).
func (db *DB) RuleSetOf(sqlText string) (RuleSet, error) {
	res, err := db.Optimize(sqlText)
	if err != nil {
		return nil, err
	}
	return res.RuleSet, nil
}

// Explain renders the chosen plan for a query.
func (db *DB) Explain(sqlText string, disabled ...RuleID) (string, error) {
	res, err := db.Optimize(sqlText, disabled...)
	if err != nil {
		return "", err
	}
	return res.Plan.String(), nil
}

// AnalyzeStats is the per-operator estimated-versus-actual cardinality tree
// from an instrumented execution.
type AnalyzeStats = exec.OpStats

// Analyze optimizes and executes a query with per-operator row counting and
// returns the rows plus the estimate-versus-actual tree (EXPLAIN ANALYZE).
func (db *DB) Analyze(sqlText string, disabled ...RuleID) ([]Row, *AnalyzeStats, error) {
	res, err := db.Optimize(sqlText, disabled...)
	if err != nil {
		return nil, nil, err
	}
	return exec.RunAnalyze(res.Plan, db.Catalog)
}

// NewGenerator builds a rule-targeted query generator over this database.
func (db *DB) NewGenerator(cfg GenConfig) (*Generator, error) {
	return qgen.New(db.Optimizer, cfg)
}

// GenerateSuite builds a correctness test suite (the bipartite graph of §4)
// for the given targets.
func (db *DB) GenerateSuite(targets []Target, cfg SuiteConfig) (*Graph, error) {
	return suite.Generate(db.Optimizer, targets, cfg)
}

// NewRuleSet builds a RuleSet from ids.
func NewRuleSet(ids ...RuleID) RuleSet { return rules.NewSet(ids...) }

// PatternXML serializes one rule pattern to its XML wire form (the API of
// §3.1).
func PatternXML(p *Pattern) ([]byte, error) { return rules.PatternXML(p) }

// Static-analysis surface (internal/rulecheck): the domain linter behind
// `qtrtest check`, runnable in-process against any registry or XML export.
type (
	// CheckReport is a static-analysis run's outcome: diagnostics plus the
	// rule-pair composability matrix.
	CheckReport = rulecheck.Report
	// CheckDiagnostic is one static-analysis finding.
	CheckDiagnostic = rulecheck.Diagnostic
	// CheckSeverity grades a finding (info, warning, error).
	CheckSeverity = rulecheck.Severity
	// ComposabilityMatrix records, per ordered exploration-rule pair, the
	// applicable §3 composition constructions and the produces→consumes
	// feeds relation.
	ComposabilityMatrix = rulecheck.Matrix
	// ExportedRule is one rule parsed back from the XML export API.
	ExportedRule = rules.ExportedRule
)

// Rule kinds.
const (
	KindExploration    = rules.KindExploration
	KindImplementation = rules.KindImplementation
)

// Check severities.
const (
	CheckInfo    = rulecheck.Info
	CheckWarning = rulecheck.Warning
	CheckError   = rulecheck.Error
)

// Static-analysis helpers, re-exported from the rulecheck package.
var (
	// CheckRules runs every static check against a live registry.
	CheckRules = rulecheck.CheckRegistry
	// CheckExportedRules runs the checks applicable to an XML-sourced rule
	// set.
	CheckExportedRules = rulecheck.CheckExported
	// ParseExportXML parses a registry export produced by Registry.ExportXML.
	ParseExportXML = rules.ParseExportXML
)

// RuleComposability computes the static rule-pair composability matrix of a
// registry's exploration rules from pattern shapes alone.
func RuleComposability(reg *Registry) *ComposabilityMatrix {
	return rulecheck.Composability(rulecheck.FromRegistry(reg))
}

// SingletonTargets wraps each rule as one target.
func SingletonTargets(ids []RuleID) []Target { return suite.SingletonTargets(ids) }

// PairTargets enumerates all rule pairs.
func PairTargets(ids []RuleID) []Target { return suite.PairTargets(ids) }

// ExplorationRuleIDs returns the IDs of the first n exploration rules (all
// of them for n <= 0).
func (db *DB) ExplorationRuleIDs(n int) []RuleID {
	var ids []RuleID
	for _, r := range db.Registry.All() {
		if r.Kind() != rules.KindExploration {
			continue
		}
		ids = append(ids, r.ID())
		if n > 0 && len(ids) == n {
			break
		}
	}
	return ids
}

// FormatRows renders rows for display.
func FormatRows(rows []Row, names []string) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(names, " | "))
	sb.WriteString("\n")
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, d := range r {
			parts[i] = d.String()
		}
		fmt.Fprintln(&sb, strings.Join(parts, " | "))
	}
	return sb.String()
}
