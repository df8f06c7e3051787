package main

import (
	"errors"
	"testing"

	"qtrtest"
)

// TestExperimentsCommand: experiments runs a figure on the TPC-H database
// the global flags load, and refuses, as a usage error, a global flag no
// figure reads and a figure that does not exist.
func TestExperimentsCommand(t *testing.T) {
	e := env{db: qtrtest.OpenTPCH(1, 42), schema: "tpch", seed: 42, workers: 2}
	fig14 := []string{"-quick", "-fig", "14"}
	if known, err := e.run("experiments", fig14); !known || err != nil {
		t.Fatalf("experiments -quick -fig 14: known=%v err=%v", known, err)
	}
	star, ext, ref := e, e, e
	star.schema, ext.ext, ref.backend = "star", true, "ref"
	for _, c := range []struct {
		name string
		e    env
		args []string
	}{
		{"-db star", star, fig14},
		{"-ext", ext, fig14},
		{"-backend ref", ref, fig14},
		{"-fig 7", e, []string{"-fig", "7"}},
	} {
		if err := cmdExperiments(c.e, c.args); !errors.As(err, new(usageError)) {
			t.Errorf("%s experiments: err = %v, want a usage error", c.name, err)
		}
	}
}
