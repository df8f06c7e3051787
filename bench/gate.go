package main

import (
	"fmt"

	"qtrtest"
	"qtrtest/internal/mutate"
)

// noGate is embedded by workloads whose only known-answer checks are the
// ones every repetition already makes (zero wrong verdicts, invariants,
// equal reports).
type noGate struct{}

func (noGate) gate() ([]string, map[string]float64) { return nil, nil }

// gate checks suite_pairs against two independent known answers, both
// untimed: the reference interpreter must agree with every base plan of the
// last repetition's TOPK suite (the reference is never the engine under
// test), and one mutation campaign must catch every shipped mutant under
// BASELINE, SMC and TOPK. The campaign runs on a fixed database, whatever
// -seed says: which mutants a k=12 suite catches depends on the rows, and a
// known answer needs a known input.
func (c *suitePairs) gate() (failures []string, counts map[string]float64) {
	g, topk := c.last, c.lastSols[len(c.lastSols)-1]
	g.SetCache(nil)
	if err := g.SetBackend("ref"); err != nil {
		return []string{err.Error()}, nil
	}
	rep, err := g.Run(topk, c.db.Optimizer, c.db.Catalog)
	switch {
	case err != nil:
		failures = append(failures, "reference cross-check: "+err.Error())
	case rep.BackendChecks == 0:
		failures = append(failures, "reference cross-check compared no base plan")
	case len(rep.BackendDisagreements) > 0:
		failures = append(failures, fmt.Sprintf("reference interpreter disagrees on %d base plans, first: %s",
			len(rep.BackendDisagreements), rep.BackendDisagreements[0].Detail))
	}
	if err := g.SetBackend(""); err != nil {
		failures = append(failures, err.Error())
	}

	cpu0 := cpuSeconds()
	score, err := qtrtest.OpenTPCH(1, 42).MutationCampaign(qtrtest.MutationConfig{
		Seed: pairsCampaignSeed, Workers: 1, Cache: qtrtest.NewResultCache(cacheBytes),
	})
	cpu := cpuSeconds() - cpu0
	if err != nil {
		return append(failures, "mutation campaign: "+err.Error()), nil
	}
	caught := len(score.Results)
	for _, algo := range mutate.AlgoNames {
		if n := score.CaughtBy(algo); n < caught {
			caught = n
			failures = append(failures, fmt.Sprintf("mutation campaign: %s caught %d of %d mutants", algo, n, len(score.Results)))
		}
	}
	counts = map[string]float64{"mutate.caught": float64(caught)}
	if caught > 0 {
		counts["mutate.cpu_s_per_caught"] = cpu / float64(caught)
	}
	return failures, counts
}
