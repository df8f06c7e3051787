// Command qtrtest is the command-line interface to the rule-testing
// framework: list rules and patterns, generate rule-targeted queries, run
// queries, and build/compress/execute correctness test suites.
//
// Usage:
//
//	qtrtest rules
//	qtrtest patterns [-rule 14]
//	qtrtest generate -rule 14 [-pair 1] [-method pattern|random] [-extra 3]
//	qtrtest ruleset -q "SELECT ..."
//	qtrtest explain -q "SELECT ..." [-disable 5,6]
//	qtrtest analyze -q "SELECT ..."
//	qtrtest query -q "SELECT ..."
//	qtrtest suite -n 10 -k 5 [-pairs] [-algo topk|smc|baseline|matching] [-validate]
//	qtrtest interactions -n 8 [-per 3]
//	qtrtest mutate [-k 12] [-targets 0] [-extra 0] [-kinds a,b] [-diff]
//	qtrtest check [-json] [-matrix] [-xml file] [-mutant kind] [-eet] [-verify]
//	qtrtest verify [-rules 1,2] [-mutant kind] [-eet] [-json]
//	qtrtest fuzz [-n 500] [-timeout 30s] [-json] [-mutant kind] [-randcat] [-eet] [-stop-on-finding]
//	qtrtest experiments [-fig N] [-quick] [-trials 256]
//
// Global flags (before the subcommand): -scale, -seed, -db tpch|star, -ext,
// -workers (worker pool size for the parallel campaign engine; suites,
// solutions and validation reports are identical for every value),
// -backend ref (the independent reference interpreter, cross-checked
// against every base execution in suite -validate, mutate, check -verify,
// verify and fuzz; any other name is rejected before any subcommand runs),
// -cpuprofile/-memprofile (write pprof profiles for the run). No subcommand
// memoizes plan results: every campaign executes directly.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"qtrtest"
	"qtrtest/internal/core/oracle"
)

// env is what the global flags say, built once in main and handed to every
// subcommand.
type env struct {
	db      *qtrtest.DB
	schema  string
	ext     bool // -ext: db's registry carries the extension rules
	seed    int64
	workers int
	backend string // -backend: the cross-check engine's name, "" for none
}

// run dispatches a subcommand; known is false for an unrecognized one. The
// -backend name is checked here, once, so a campaign that would not have
// used it cannot let a typo — or a vacuous self-check — through.
func (e env) run(cmd string, rest []string) (known bool, err error) {
	if _, err := oracle.New(oracle.Options{Backend: e.backend}); err != nil {
		return true, err
	}
	switch cmd {
	case "rules":
		err = cmdRules(e.db)
	case "patterns":
		err = cmdPatterns(e.db, rest)
	case "generate":
		err = cmdGenerate(e, rest)
	case "ruleset":
		err = cmdRuleSet(e.db, rest)
	case "explain":
		err = cmdExplain(e.db, rest)
	case "analyze":
		err = cmdAnalyze(e.db, rest)
	case "query":
		err = cmdQuery(e.db, rest)
	case "suite":
		err = cmdSuite(e, rest)
	case "interactions":
		err = cmdInteractions(e, rest)
	case "mutate":
		err = cmdMutate(e, rest)
	case "check":
		err = cmdCheck(e, rest)
	case "verify":
		err = cmdVerify(e, rest)
	case "fuzz":
		err = cmdFuzz(e, rest)
	case "experiments":
		err = cmdExperiments(e, rest)
	default:
		return false, nil
	}
	return true, err
}

func main() {
	scale := flag.Float64("scale", 1.0, "test database row scale")
	seed := flag.Int64("seed", 42, "random seed")
	schema := flag.String("db", "tpch", "test database: tpch or star")
	ext := flag.Bool("ext", false, "enable the schema-dependent extension rules (31-34)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for suite generation/compression/execution (results are identical for any value)")
	backend := flag.String("backend", "", "independent cross-check backend (ref, the reference engine); replays base executions on it in suite -validate, mutate, check -verify, verify and fuzz")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	if err := positive(flag.CommandLine, "scale"); err != nil {
		fmt.Fprintln(os.Stderr, "qtrtest:", err)
		os.Exit(2)
	}
	var db *qtrtest.DB
	switch *schema {
	case "tpch":
		db = qtrtest.OpenTPCH(*scale, *seed)
	case "star":
		db = qtrtest.OpenStar(*scale, *seed)
	default:
		fmt.Fprintf(os.Stderr, "qtrtest: unknown database %q (tpch or star)\n", *schema)
		os.Exit(2)
	}
	if *ext {
		db = qtrtest.Open(db.Catalog, qtrtest.RegistryWithExtensions())
	}
	profile, err := startProfile(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtrtest:", err)
		os.Exit(1)
	}
	e := env{db: db, schema: *schema, ext: *ext, seed: *seed, workers: *workers, backend: *backend}
	known, err := e.run(args[0], args[1:])
	if perr := profile.stop(); perr != nil && err == nil {
		err = perr
	}
	if !known {
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtrtest:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a command line that names no valid run: main exits 2 on it,
// as the flag package does on a malformed flag.
type usageError struct{ error }

// positive rejects a count or scale flag of fs that is not above zero. The
// campaigns read a zero or negative count as their default (or as "all"),
// and a database of scale zero has one row per table, so such a value would
// run something other than what was asked for without a word.
func positive(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		v := fs.Lookup(name).Value.String()
		if f, err := strconv.ParseFloat(v, 64); err != nil || !(f > 0) {
			return usageError{fmt.Errorf("-%s %s: must be positive", name, v)}
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: qtrtest [-scale F] [-seed S] [-db tpch|star] [-ext] [-workers W] [-backend ref] [-cpuprofile F] [-memprofile F] <rules|patterns|generate|ruleset|explain|analyze|query|suite|interactions|mutate|check|verify|fuzz|experiments> [flags]")
	os.Exit(2)
}

func cmdRules(db *qtrtest.DB) error {
	fmt.Printf("%-4s %-15s %-28s %s\n", "id", "kind", "name", "pattern")
	for _, r := range db.Registry.All() {
		fmt.Printf("%-4d %-15s %-28s %s\n", r.ID(), r.Kind(), r.Name(), r.Pattern())
	}
	return nil
}

func cmdPatterns(db *qtrtest.DB, args []string) error {
	fs := flag.NewFlagSet("patterns", flag.ExitOnError)
	rule := fs.Int("rule", 0, "rule id (0 = all, as a ruleset document)")
	fs.Parse(args)
	if *rule == 0 {
		data, err := db.Registry.ExportXML()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	r, err := db.Registry.ByID(qtrtest.RuleID(*rule))
	if err != nil {
		return err
	}
	data, err := qtrtest.PatternXML(r.Pattern())
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func cmdGenerate(e env, args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	rule := fs.Int("rule", 0, "target rule id")
	pair := fs.Int("pair", 0, "second rule id for a rule pair")
	method := fs.String("method", "pattern", "pattern or random")
	extra := fs.Int("extra", 0, "extra random operators")
	trials := fs.Int("trials", 512, "max trials")
	relevant := fs.Bool("relevant", false, "require the rule to change the chosen plan (§7)")
	interact := fs.Bool("interact", false, "require -pair to fire on -rule's output (§7)")
	fs.Parse(args)
	if err := positive(fs, "trials"); err != nil {
		return err
	}
	if *rule == 0 {
		return fmt.Errorf("generate: -rule is required")
	}
	gen, err := e.db.NewGenerator(qtrtest.GenConfig{Seed: e.seed, MaxTrials: *trials, ExtraOps: *extra})
	if err != nil {
		return err
	}
	var q *qtrtest.GeneratedQuery
	switch {
	case *relevant:
		q, err = gen.GenerateRelevant(qtrtest.RuleID(*rule))
	case *interact:
		if *pair == 0 {
			return fmt.Errorf("generate: -interact requires -pair")
		}
		q, err = gen.GenerateInteractionPair(qtrtest.RuleID(*rule), qtrtest.RuleID(*pair))
	case *method == "random":
		target := []qtrtest.RuleID{qtrtest.RuleID(*rule)}
		if *pair != 0 {
			target = append(target, qtrtest.RuleID(*pair))
		}
		q, err = gen.GenerateRandom(target)
	case *pair != 0:
		q, err = gen.GeneratePatternPair(qtrtest.RuleID(*rule), qtrtest.RuleID(*pair))
	default:
		q, err = gen.GeneratePattern(qtrtest.RuleID(*rule))
	}
	if err != nil {
		return err
	}
	fmt.Printf("-- trials: %d  elapsed: %s  ops: %d  est. cost: %.1f\n",
		q.Trials, q.Elapsed, q.Tree.CountOps(), q.Cost)
	fmt.Printf("-- RuleSet: %v\n", q.RuleSet.Sorted())
	fmt.Println(q.SQL)
	return nil
}

func cmdRuleSet(db *qtrtest.DB, args []string) error {
	fs := flag.NewFlagSet("ruleset", flag.ExitOnError)
	q := fs.String("q", "", "SQL query")
	fs.Parse(args)
	if *q == "" {
		return fmt.Errorf("ruleset: -q is required")
	}
	rs, err := db.RuleSetOf(*q)
	if err != nil {
		return err
	}
	for _, id := range rs.Sorted() {
		r, err := db.Registry.ByID(id)
		if err != nil {
			return err
		}
		fmt.Printf("%-4d %-15s %s\n", id, r.Kind(), r.Name())
	}
	return nil
}

func parseIDs(s string) ([]qtrtest.RuleID, error) {
	if s == "" {
		return nil, nil
	}
	var out []qtrtest.RuleID
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad rule id %q", part)
		}
		out = append(out, qtrtest.RuleID(n))
	}
	return out, nil
}

func cmdExplain(db *qtrtest.DB, args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	q := fs.String("q", "", "SQL query")
	disable := fs.String("disable", "", "comma-separated rule ids to disable")
	fs.Parse(args)
	if *q == "" {
		return fmt.Errorf("explain: -q is required")
	}
	ids, err := parseIDs(*disable)
	if err != nil {
		return err
	}
	plan, err := db.Explain(*q, ids...)
	if err != nil {
		return err
	}
	fmt.Print(plan)
	return nil
}

func cmdAnalyze(db *qtrtest.DB, args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	q := fs.String("q", "", "SQL query")
	disable := fs.String("disable", "", "comma-separated rule ids to disable")
	fs.Parse(args)
	if *q == "" {
		return fmt.Errorf("analyze: -q is required")
	}
	ids, err := parseIDs(*disable)
	if err != nil {
		return err
	}
	rows, stats, err := db.Analyze(*q, ids...)
	if err != nil {
		return err
	}
	fmt.Print(stats)
	fmt.Printf("(%d rows, worst q-error %.1f)\n", len(rows), stats.MaxQError())
	return nil
}

func cmdQuery(db *qtrtest.DB, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	q := fs.String("q", "", "SQL query")
	fs.Parse(args)
	if *q == "" {
		return fmt.Errorf("query: -q is required")
	}
	rows, names, err := db.Query(*q)
	if err != nil {
		return err
	}
	fmt.Print(qtrtest.FormatRows(rows, names))
	fmt.Printf("(%d rows)\n", len(rows))
	return nil
}

// cmdInteractions prints the observed rule-interaction matrix (§7: rule r2
// exercised on an expression created by rule r1) over a coverage campaign.
func cmdInteractions(e env, args []string) error {
	db := e.db
	fs := flag.NewFlagSet("interactions", flag.ExitOnError)
	n := fs.Int("n", 8, "number of exploration rules")
	per := fs.Int("per", 3, "queries generated per rule")
	fs.Parse(args)
	if err := positive(fs, "n", "per"); err != nil {
		return err
	}
	gen, err := db.NewGenerator(qtrtest.GenConfig{Seed: e.seed, MaxTrials: 256, ExtraOps: 2})
	if err != nil {
		return err
	}
	ids := db.ExplorationRuleIDs(*n)
	seen := make(map[[2]qtrtest.RuleID]int)
	for _, id := range ids {
		for k := 0; k < *per; k++ {
			q, err := gen.GeneratePattern(id)
			if err != nil {
				continue
			}
			res, err := db.Optimizer.Optimize(q.Tree, q.MD, qtrtest.OptimizeOptions{})
			if err != nil {
				return err
			}
			for pair := range res.Interactions {
				seen[pair]++
			}
		}
	}
	fmt.Printf("observed rule interactions over %d queries (creator -> fired, count):\n", len(ids)**per)
	for _, a := range ids {
		for _, b := range ids {
			if c := seen[[2]qtrtest.RuleID{a, b}]; c > 0 {
				ra, _ := db.Registry.ByID(a)
				rb, _ := db.Registry.ByID(b)
				fmt.Printf("  %-26s -> %-26s %d\n", ra.Name(), rb.Name(), c)
			}
		}
	}
	return nil
}

// cmdMutate runs the rule-mutation fault-injection campaign: one full
// generate/compress/execute pipeline per injected rule fault, reporting the
// mutation score of the uncompressed and compressed suites.
func cmdMutate(e env, args []string) error {
	fs := flag.NewFlagSet("mutate", flag.ExitOnError)
	k := fs.Int("k", 12, "test-suite size per target")
	targets := fs.Int("targets", 0, "extra healthy-rule targets beside the mutated rule (an edge over the work budget, e.g. a wrong plan's cross product, is counted as capped)")
	extra := fs.Int("extra", 0, "extra random operators per query")
	trials := fs.Int("trials", 512, "max generation trials per query")
	kinds := fs.String("kinds", "", "comma-separated mutant kinds (default: all)")
	diff := fs.Bool("diff", false, "print per-mutant plan-diff evidence")
	fs.Parse(args)
	if err := positive(fs, "k", "trials"); err != nil {
		return err
	}
	if err := noExt(e, "mutate"); err != nil {
		return err
	}
	cfg := qtrtest.MutationConfig{
		K: *k, Targets: *targets, ExtraOps: *extra, Seed: e.seed, MaxTrials: *trials,
		Workers: e.workers, Backend: e.backend,
	}
	if *kinds != "" {
		var ks []qtrtest.MutantKind
		for _, part := range strings.Split(*kinds, ",") {
			ks = append(ks, qtrtest.MutantKind(strings.TrimSpace(part)))
		}
		ms, err := qtrtest.MutantsByKind(ks...)
		if err != nil {
			return err
		}
		cfg.Mutants = ms
	}
	score, err := e.db.MutationCampaign(cfg)
	if err != nil {
		return err
	}
	score.Print(os.Stdout, *diff)
	return nil
}

// cmdCheck runs the static rule/pattern linter (internal/rulecheck) over
// the active registry — or over an XML ruleset export, or over a mutant's
// registry as a self-test probe, optionally extended with the EET rule pack
// — and exits nonzero on findings. With -verify it additionally runs the
// small-scope semantic verifier over the same live registry as a deep pass.
func cmdCheck(e env, args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	matrix := fs.Bool("matrix", false, "also print the composability feeds relation")
	xmlFile := fs.String("xml", "", "check a ruleset XML export instead of the active registry")
	mutant := fs.String("mutant", "", "check the registry of the given mutant kind instead (fault-injection self-test)")
	eet := fs.Bool("eet", false, "check the registry extended with the EET exploration-rule candidates")
	deep := fs.Bool("verify", false, "additionally run the small-scope semantic verifier (deep pass)")
	fs.Parse(args)
	if *xmlFile != "" && (*mutant != "" || *eet || *deep) {
		return fmt.Errorf("check: -xml cannot be combined with -mutant, -eet or -verify")
	}

	var rep *qtrtest.CheckReport
	var reg *qtrtest.Registry
	if *xmlFile != "" {
		data, err := os.ReadFile(*xmlFile)
		if err != nil {
			return err
		}
		ex, err := qtrtest.ParseExportXML(data)
		if err != nil {
			return err
		}
		rep = qtrtest.CheckExportedRules(ex)
	} else {
		var err error
		if reg, err = registry(e, "check", *mutant, *eet); err != nil {
			return err
		}
		rep = qtrtest.CheckRules(reg)
	}

	if *asJSON {
		out := rep
		if !*matrix {
			out = &qtrtest.CheckReport{Diagnostics: rep.Diagnostics}
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		for _, d := range rep.Diagnostics {
			fmt.Println(d)
		}
		fmt.Printf("check: %d error(s), %d warning(s), %d info\n",
			rep.Count(qtrtest.CheckError), rep.Count(qtrtest.CheckWarning), rep.Count(qtrtest.CheckInfo))
		if *matrix && rep.Matrix != nil {
			fmt.Print(rep.Matrix)
		}
	}
	lintErr := error(nil)
	if rep.Failed() {
		lintErr = fmt.Errorf("check: %d finding(s)", rep.Count(qtrtest.CheckError)+rep.Count(qtrtest.CheckWarning))
	}
	if *deep {
		vrep, err := qtrtest.VerifyRules(verifyConfig(e, reg))
		if err != nil {
			return err
		}
		if !*asJSON {
			vrep.Print(os.Stdout)
		}
		if len(vrep.Findings) > 0 {
			return fmt.Errorf("check: semantic verify flagged %d rule(s)", len(vrep.Findings))
		}
	}
	return lintErr
}

func cmdSuite(e env, args []string) error {
	db, backend := e.db, e.backend
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	n := fs.Int("n", 10, "number of exploration rules")
	k := fs.Int("k", 5, "test-suite size per target")
	pairs := fs.Bool("pairs", false, "test rule pairs instead of singletons")
	algo := fs.String("algo", "topk", "topk, smc, baseline or matching")
	extra := fs.Int("extra", 3, "extra random operators per query")
	validate := fs.Bool("validate", false, "execute the compressed suite and compare results")
	fs.Parse(args)
	if err := positive(fs, "n", "k"); err != nil {
		return err
	}

	ids := db.ExplorationRuleIDs(*n)
	var targets []qtrtest.Target
	if *pairs {
		targets = qtrtest.PairTargets(ids)
	} else {
		targets = qtrtest.SingletonTargets(ids)
	}
	fmt.Printf("generating suite: %d targets, k=%d ...\n", len(targets), *k)
	g, err := db.GenerateSuite(targets, qtrtest.SuiteConfig{K: *k, Seed: e.seed, ExtraOps: *extra, Workers: e.workers})
	if err != nil {
		return err
	}
	var sol *qtrtest.Solution
	switch *algo {
	case "topk":
		sol, err = g.TopKIndependent()
	case "smc":
		sol, err = g.SetMultiCover()
	case "baseline":
		sol, err = g.Baseline()
	case "matching":
		sol, err = g.MatchingNoShare()
	default:
		return fmt.Errorf("suite: unknown algorithm %q", *algo)
	}
	if err != nil {
		return err
	}
	distinct := map[int]bool{}
	for _, a := range sol.Assignments {
		distinct[a.Query] = true
	}
	fmt.Printf("%s: %d assignments over %d distinct queries (of %d generated)\n",
		sol.Name, len(sol.Assignments), len(distinct), len(g.Queries))
	fmt.Printf("total estimated execution cost: %.0f (optimizer calls: %d)\n",
		sol.TotalCost, sol.OptimizerCalls)
	if *validate {
		if err := g.SetBackend(backend); err != nil {
			return err
		}
		rep, err := g.Run(sol, db.Optimizer, db.Catalog)
		if err != nil {
			return err
		}
		fmt.Printf("validation: %d plan executions, %d skipped (identical plans), %d mismatches, %d undetermined\n",
			rep.PlanExecutions, rep.SkippedIdentical, len(rep.Mismatches), len(rep.Undetermined))
		if rep.Capped > 0 {
			fmt.Printf("capped: %d edges over the work budget\n", rep.Capped)
		}
		if backend != "" {
			fmt.Printf("backend %s: %d cross-checks, %d disagreements\n",
				backend, rep.BackendChecks, len(rep.BackendDisagreements))
		}
		for _, m := range rep.Mismatches {
			fmt.Printf("  BUG target %s: %s\n      %s\n", m.Target, m.Detail, m.Query.SQL)
		}
		for _, u := range rep.Undetermined {
			fmt.Printf("  UNDETERMINED target %s: %s\n      %s\n", u.Target, u.Detail, u.Query.SQL)
		}
		for _, d := range rep.BackendDisagreements {
			fmt.Printf("  BACKEND DISAGREEMENT: %s\n      %s\n", d.Detail, d.Query.SQL)
		}
	}
	return nil
}
