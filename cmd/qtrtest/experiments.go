package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"qtrtest/internal/experiments"
)

// cmdExperiments regenerates the paper's evaluation figures (§6, Figures
// 8–14) plus Figure 15, an extension: the mutation score of the correctness
// oracle under rule-mutation fault injection. The figures run on the TPC-H
// database the global -scale and -seed load; the printed series are
// identical for every -workers value. Without -fig, every figure runs in
// order; -quick shrinks rule counts and suite sizes so the whole set
// finishes in seconds.
func cmdExperiments(e env, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fig := fs.Int("fig", 0, "figure to run (8-15); 0 runs all")
	quick := fs.Bool("quick", false, "shrink experiment sizes for a fast run")
	trials := fs.Int("trials", 256, "max generation trials per target")
	fs.Parse(args)
	if err := positive(fs, "trials"); err != nil {
		return err
	}
	switch {
	case *fig != 0 && (*fig < 8 || *fig > 15):
		return usageError{fmt.Errorf("experiments: -fig %d: no such figure (8-15, or 0 for all)", *fig)}
	case e.schema != "tpch":
		return usageError{fmt.Errorf("experiments: -db %s: the figures run on tpch", e.schema)}
	case e.ext:
		return usageError{fmt.Errorf("experiments: -ext: the figures run on the default rules")}
	case e.backend != "":
		return usageError{fmt.Errorf("experiments: -backend %s: no figure cross-checks a backend", e.backend)}
	}

	r := experiments.NewRunner(e.db.Optimizer, experiments.Config{
		Seed: e.seed, Quick: *quick, MaxTrials: *trials, Workers: e.workers,
	})
	w := os.Stdout
	run := func(n int) bool { return *fig == 0 || *fig == n }
	start := time.Now()

	if run(8) {
		res, err := r.Fig8()
		if err != nil {
			return err
		}
		res.Print(w)
		fmt.Fprintln(w)
	}
	if run(9) || run(10) {
		res, err := r.Fig9And10()
		if err != nil {
			return err
		}
		if run(9) {
			experiments.PrintFig9(w, res)
			fmt.Fprintln(w)
		}
		if run(10) {
			experiments.PrintFig10(w, res)
			fmt.Fprintln(w)
		}
	}
	if run(11) {
		rows, err := r.Fig11()
		if err != nil {
			return err
		}
		experiments.PrintCompression(w, "Figure 11: suite compression, singleton rules (total estimated cost, k=10)", rows, false)
		fmt.Fprintln(w)
	}
	if run(12) {
		rows, err := r.Fig12()
		if err != nil {
			return err
		}
		experiments.PrintCompression(w, "Figure 12: suite compression, rule pairs (total estimated cost, k=10)", rows, false)
		fmt.Fprintln(w)
	}
	if run(13) {
		rows, err := r.Fig13()
		if err != nil {
			return err
		}
		experiments.PrintCompression(w, "Figure 13: suite compression vs test-suite size k (rule pairs)", rows, true)
		fmt.Fprintln(w)
	}
	if run(14) {
		rows, err := r.Fig14()
		if err != nil {
			return err
		}
		experiments.PrintFig14(w, rows)
		fmt.Fprintln(w)
	}
	if run(15) {
		score, err := r.Fig15()
		if err != nil {
			return err
		}
		experiments.PrintFig15(w, score)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "total experiment time: %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
