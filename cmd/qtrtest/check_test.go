package main

import (
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

// TestUnknownBackendRejectedUpFront: -backend is resolved once, before any
// subcommand runs. `suite` without -validate and `check` without -verify
// never reach a campaign that would resolve the name, and used to succeed
// silently with a typo in it. The engine campaigns execute on is rejected the
// same way: `-backend batch suite -validate` used to print "0 cross-checks,
// 0 disagreements" for a check that never ran.
func TestUnknownBackendRejectedUpFront(t *testing.T) {
	e := checkDB(t, 2)
	for backend, want := range map[string]string{
		"bogus": `unknown engine "bogus"`,
		"batch": `backend "batch" is the engine campaigns execute on`,
	} {
		e.oracle.Backend = backend
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
	e.oracle.Backend = "ref"
	if _, err := e.run("check", nil); err != nil {
		t.Errorf("-backend ref check: %v", err)
	}
}
