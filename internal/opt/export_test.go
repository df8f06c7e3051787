package opt

import "qtrtest/internal/rules"

// WithFirstFire sets the unexported first-fire probe for tests in package
// opt_test, which — unlike tests in this package — may import the query
// generator.
func (o Options) WithFirstFire(f func(r rules.ID, exprs int)) Options {
	o.onFirstFire = f
	return o
}

// WithPoison makes the optimization poison what it hands back for reuse: each
// candidate it releases and, when its Result is released, its whole scratch.
func (o Options) WithPoison() Options {
	o.onRelease = poisonCandidate
	o.onPool = poisonScratch
	return o
}

// DumpPlan is dumpPlan for tests in package opt_test.
var DumpPlan = dumpPlan

// TPCHCorpus and StarCorpus are the differential harness's query lists.
var TPCHCorpus, StarCorpus = tpchCorpus, starCorpus

// WonBy returns, per group of an unreleased result's memo, the rule whose
// candidate the base costing chose — what Without's shortcut reads.
func WonBy(r *Result) []rules.ID { return r.scratch.imp.wonBy }

// CountWork installs the work counter (true: an exploration, false: a
// re-costing of a held memo) and returns the function that removes it.
func CountWork(f func(explored bool)) (restore func()) {
	onWork = f
	return func() { onWork = nil }
}
