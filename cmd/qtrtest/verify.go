package main

import (
	"flag"
	"fmt"
	"os"

	"qtrtest"
)

// verifyRegistry resolves the registry a verify run targets: the active
// registry by default, a mutant's registry with -mutant, either one extended
// with the EET rule pack with -eet. The returned config carries the labels
// the report and repro lines embed, and the global execution flags.
func verifyRegistry(e env, mutant string, eet bool) (qtrtest.VerifyConfig, error) {
	cfg := qtrtest.VerifyConfig{
		Registry: e.db.Registry, EET: eet,
		Workers: e.workers, Cache: e.oracle.Cache, Backend: e.oracle.Backend,
	}
	if mutant != "" {
		ms, err := qtrtest.MutantsByKind(qtrtest.MutantKind(mutant))
		if err != nil {
			return cfg, err
		}
		cfg.Registry = ms[0].Registry()
		cfg.Mutant = mutant
		if eet {
			cfg.Registry = qtrtest.RegistryExtend(cfg.Registry, eetRulePack()...)
		}
	} else if eet {
		cfg.Registry = qtrtest.RegistryWithEET()
	}
	return cfg, nil
}

// eetRulePack widens the concrete EET rule slice to the []Rule variadic base
// RegistryExtend takes.
func eetRulePack() []qtrtest.Rule {
	eet := qtrtest.EETRules()
	out := make([]qtrtest.Rule, len(eet))
	for i, r := range eet {
		out[i] = r
	}
	return out
}

// cmdVerify runs the small-scope semantic rule verifier: every rule's
// pattern is instantiated canonically, executed against every bounded tiny
// database on both sides of the rewrite, and compared under the correct
// order/limit sensitivity. The report is byte-identical for every -workers
// value, so a finding's repro line replays anywhere; the command exits
// nonzero when any rule is flagged, making it a CI tripwire like fuzz.
func cmdVerify(e env, args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	ruleIDs := fs.String("rules", "", "comma-separated rule ids to verify (default: all)")
	mutant := fs.String("mutant", "", "verify a mutant registry instead (fault-injection self-test)")
	eet := fs.Bool("eet", false, "include the EET exploration-rule candidates")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	fs.Parse(args)

	cfg, err := verifyRegistry(e, *mutant, *eet)
	if err != nil {
		return err
	}
	if cfg.Rules, err = parseIDs(*ruleIDs); err != nil {
		return err
	}
	rep, err := qtrtest.VerifyRules(cfg)
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		rep.Print(os.Stdout)
	}
	if len(rep.Findings) > 0 {
		return fmt.Errorf("verify: %d rule(s) flagged", len(rep.Findings))
	}
	return nil
}
