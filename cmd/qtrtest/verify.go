package main

import (
	"flag"
	"fmt"
	"os"

	"qtrtest"
)

// registry resolves the rule set a fuzz, check or verify run (cmd) targets:
// the active registry by default, a mutant's registry with -mutant, either
// one extended with the EET rule pack with eet. The registry itself says
// which it is; reports and repro lines read their labels from it.
func registry(e env, cmd, mutant string, eet bool) (*qtrtest.Registry, error) {
	reg := e.db.Registry
	if mutant != "" {
		if err := noExt(e, cmd); err != nil {
			return nil, err
		}
		ms, err := qtrtest.MutantsByKind(qtrtest.MutantKind(mutant))
		if err != nil {
			return nil, err
		}
		reg = ms[0].Registry()
	}
	if eet {
		reg = qtrtest.RegistryExtend(reg, qtrtest.EETRules()...)
	}
	return reg, nil
}

// noExt rejects -ext for a run (cmd) on mutant registries: every one is built
// from the default rules, so it would drop the extension rules without a
// word.
func noExt(e env, cmd string) error {
	if e.ext {
		return fmt.Errorf("%s: -ext cannot be combined with a mutant: every mutant registry is built from the default rules", cmd)
	}
	return nil
}

// verifyConfig is the verify run over reg with the global execution flags.
func verifyConfig(e env, reg *qtrtest.Registry) qtrtest.VerifyConfig {
	return qtrtest.VerifyConfig{Registry: reg, Workers: e.workers, Backend: e.backend}
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

	reg, err := registry(e, "verify", *mutant, *eet)
	if err != nil {
		return err
	}
	cfg := verifyConfig(e, reg)
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
