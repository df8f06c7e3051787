package main

import (
	"errors"
	"flag"
	"strings"
	"testing"

	"qtrtest"
)

func checkDB(t *testing.T, workers int) env {
	t.Helper()
	return env{db: qtrtest.OpenTPCH(0.01, 1), workers: workers}
}

// TestCheckMutantWithEETExitsNonzero pins the exit-code fix: -mutant and
// -eet used to be mutually exclusive, so lint findings surfaced only by
// checking a mutant registry extended with the EET rule pack could never
// drive a nonzero exit. Now the combination is accepted and a finding on
// the combined registry must return an error (exit 1 at the CLI).
func TestCheckMutantWithEETExitsNonzero(t *testing.T) {
	if err := cmdCheck(checkDB(t, 2), []string{"-mutant", "wrong-agg", "-eet"}); err == nil {
		t.Fatal("check -mutant wrong-agg -eet returned nil; lint findings on the combined registry must exit nonzero")
	}
}

// TestCheckEETCleanExitsZero: the pristine registry extended with the EET
// pack lints clean, so the same flag combination without a mutant must
// return nil.
func TestCheckEETCleanExitsZero(t *testing.T) {
	if err := cmdCheck(checkDB(t, 2), []string{"-eet"}); err != nil {
		t.Fatalf("check -eet on the pristine registry failed: %v", err)
	}
}

// TestCheckXMLExclusive: -xml still rejects the registry-selection flags,
// since an XML export has no mutant or EET variant to resolve.
func TestCheckXMLExclusive(t *testing.T) {
	err := cmdCheck(checkDB(t, 2), []string{"-xml", "nope.xml", "-mutant", "wrong-agg"})
	if err == nil || !strings.Contains(err.Error(), "-xml cannot be combined") {
		t.Fatalf("check -xml -mutant: err = %v, want the exclusivity error", err)
	}
}

// TestExtRejectedWhereMutantsIgnoreIt: every mutant registry is built from
// the default rules, so -ext used to be dropped without a word by mutate and
// by fuzz, check and verify with -mutant — the command ran and tested not
// one extension rule. Each combination now fails with the exclusivity error.
func TestExtRejectedWhereMutantsIgnoreIt(t *testing.T) {
	e := checkDB(t, 2)
	e.ext = true
	for _, args := range [][]string{
		{"mutate", "-k", "1"},
		{"fuzz", "-n", "1", "-mutant", "wrong-agg"},
		{"check", "-mutant", "wrong-agg"},
		{"verify", "-mutant", "wrong-agg"},
	} {
		known, err := e.run(args[0], args[1:])
		if !known || err == nil || !strings.Contains(err.Error(), "-ext cannot be combined") {
			t.Errorf("-ext %v: known=%v err=%v, want the exclusivity error", args, known, err)
		}
	}
}

// TestCheckDeepPassFlagsMutant: check -verify runs the small-scope semantic
// verifier as a deep pass; a semantically wrong mutant that the structural
// linter alone cannot catch must still fail the command.
func TestCheckDeepPassFlagsMutant(t *testing.T) {
	if err := cmdCheck(checkDB(t, 4), []string{"-mutant", "limit-off-by-one", "-verify"}); err == nil {
		t.Fatal("check -mutant limit-off-by-one -verify returned nil; the deep pass missed the mutant")
	}
	if err := cmdCheck(checkDB(t, 4), []string{"-verify"}); err != nil {
		t.Fatalf("check -verify on the pristine registry failed: %v", err)
	}
}

// TestVerifyCommandExitCodes: the standalone verify command errors exactly
// when a rule is flagged.
func TestVerifyCommandExitCodes(t *testing.T) {
	err := cmdVerify(checkDB(t, 2), []string{"-mutant", "limit-off-by-one", "-rules", "117"})
	if err == nil || !strings.Contains(err.Error(), "1 rule(s) flagged") {
		t.Fatalf("verify on the limit mutant: err = %v, want a flagged-rule error", err)
	}
	if err := cmdVerify(checkDB(t, 2), []string{"-rules", "116,117"}); err != nil {
		t.Fatalf("verify on pristine rules 116,117 failed: %v", err)
	}
}

// TestUnknownDisableIDRejected: explain and analyze -disable used to drop an
// id no rule has and print Plan(q) with exit 0, where verify -rules fails on
// it. Both now fail, naming the id; a known id still runs.
func TestUnknownDisableIDRejected(t *testing.T) {
	e := checkDB(t, 2)
	q := "SELECT * FROM nation WHERE n_nationkey < 5"
	for _, cmd := range []string{"explain", "analyze"} {
		known, err := e.run(cmd, []string{"-q", q, "-disable", "999"})
		if !known || err == nil || !strings.Contains(err.Error(), "no rule with id 999") {
			t.Errorf("%s -disable 999: known=%v err=%v, want the unknown-id error", cmd, known, err)
		}
		if _, err := e.run(cmd, []string{"-q", q, "-disable", "14"}); err != nil {
			t.Errorf("%s -disable 14: %v", cmd, err)
		}
	}
}

// TestUnknownBackendRejectedUpFront: -backend is resolved once, before any
// subcommand runs. `suite` without -validate and `check` without -verify
// never reach a campaign that would resolve the name, and used to succeed
// silently with a typo in it. "ref" is the one backend: `-backend batch
// suite -validate` used to print "0 cross-checks, 0 disagreements" for a
// check that never ran, and "row" shares the batch engine's plan compiler
// and scalar kernel, so it cannot see an optimizer fault.
func TestUnknownBackendRejectedUpFront(t *testing.T) {
	e := checkDB(t, 2)
	for _, backend := range []string{"bogus", "batch", "row"} {
		want := `unknown backend "` + backend + `" (the one cross-check backend is "ref")`
		e.backend = backend
		for _, args := range [][]string{
			{"suite", "-n", "1", "-k", "1"},
			{"suite", "-n", "4", "-k", "2", "-validate"},
			{"check"},
			{"rules"},
		} {
			known, err := e.run(args[0], args[1:])
			if !known || err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("-backend %s %v: known=%v err=%v, want %q", backend, args, known, err, want)
			}
		}
	}
	e.backend = "ref"
	if _, err := e.run("check", nil); err != nil {
		t.Errorf("-backend ref check: %v", err)
	}
}

// TestCountsRejectedUpFront: a zero or negative count used to run the
// campaign's default (fuzz -n 0 ran 500 queries, suite -k 0 printed k=0 and
// ran K=10, suite -n -2 every rule), and -scale 0 opened one-row tables. Each
// is now a usage error naming the flag (exit 2 at the CLI), raised before any
// work.
func TestCountsRejectedUpFront(t *testing.T) {
	e := checkDB(t, 2)
	for _, args := range [][]string{
		{"fuzz", "-n", "0"},
		{"fuzz", "-n", "-5"},
		{"suite", "-k", "0"},
		{"suite", "-n", "-2"},
		{"mutate", "-k", "0"},
		{"mutate", "-trials", "-1"},
		{"generate", "-rule", "14", "-trials", "0"},
		{"interactions", "-n", "0"},
		{"interactions", "-per", "0"},
	} {
		known, err := e.run(args[0], args[1:])
		if !known || !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), args[len(args)-2]+" "+args[len(args)-1]) {
			t.Errorf("%v: known=%v err=%v, want a usage error naming the flag", args, known, err)
		}
	}
	for _, scale := range []string{"0", "-1", "NaN"} {
		fs := flag.NewFlagSet("qtrtest", flag.ContinueOnError)
		fs.Float64("scale", 1, "")
		if err := fs.Parse([]string{"-scale", scale}); err != nil {
			t.Fatal(err)
		}
		if err := positive(fs, "scale"); !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), "-scale") {
			t.Errorf("-scale %s: err = %v, want a usage error naming the flag", scale, err)
		}
	}
}
