package main

import (
	"flag"
	"fmt"
	"os"

	"qtrtest"
)

// cmdFuzz runs the plan-guided metamorphic fuzzing campaign. The report is
// byte-identical for every -workers value at a fixed seed, so a finding's
// repro line replays anywhere; the command exits nonzero when the campaign
// reports findings, making it usable as a CI tripwire.
func cmdFuzz(e env, args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	n := fs.Int("n", 500, "number of queries to generate")
	timeout := fs.Duration("timeout", 0, "stop at the next round boundary after this budget (0 = none; a timed-out report is not workers-deterministic)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	mutant := fs.String("mutant", "", "fuzz a mutant registry instead (fault-injection self-test)")
	randcat := fs.Bool("randcat", false, "fuzz a seeded random catalog instead of the -db database")
	eet := fs.Bool("eet", false, "enable the expression-level equivalence (EET) rewrites")
	stop := fs.Bool("stop-on-finding", false, "stop at the first round boundary with a finding")
	fs.Parse(args)
	if err := positive(fs, "n"); err != nil {
		return err
	}

	reg, err := registry(e, "fuzz", *mutant, false)
	if err != nil {
		return err
	}
	cfg := qtrtest.FuzzConfig{
		Seed: e.seed, N: *n, Workers: e.workers, Timeout: *timeout,
		Registry: reg, DB: e.schema, EET: *eet, StopOnFinding: *stop, Backend: e.backend,
	}
	var rep *qtrtest.FuzzReport
	if *randcat {
		// A nil catalog with DB unset makes the fuzzer derive a random
		// catalog from the seed; bypass db so its catalog is not injected.
		cfg.DB = ""
		rep, err = qtrtest.FuzzRun(cfg)
	} else {
		rep, err = e.db.Fuzz(cfg)
	}
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
		return fmt.Errorf("fuzz: %d finding(s)", len(rep.Findings))
	}
	return nil
}
