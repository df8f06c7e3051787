package opt

import "qtrtest/internal/rules"

// WithFirstFire sets the unexported first-fire probe for tests in package
// opt_test, which — unlike tests in this package — may import the query
// generator.
func (o Options) WithFirstFire(f func(r rules.ID, exprs int)) Options {
	o.onFirstFire = f
	return o
}

// WithPoison makes the optimization poison each candidate it releases.
func (o Options) WithPoison() Options {
	o.onRelease = poisonCandidate
	return o
}

// PoisonPool makes o poison every scratch on its way back to its pool: the
// whole working set of a released Result. Call it before o's first
// optimization.
func PoisonPool(o *Optimizer) { o.onPool = poisonScratch }

// OnPool makes o call f with every scratch on its way back to its pool; call
// it before o's first optimization.
func OnPool(o *Optimizer, f func()) { o.onPool = func(*scratch) { f() } }

// DumpPlan is dumpPlan for tests in package opt_test.
var DumpPlan = dumpPlan

// TPCHCorpus and StarCorpus are the differential harness's query lists.
var TPCHCorpus, StarCorpus = tpchCorpus, starCorpus

// WonBy returns, per group of an unreleased result's memo, the rule whose
// candidate the base costing chose — what Without's shortcut reads.
func WonBy(r *Result) []rules.ID { return r.scratch.imp.wonBy }

// CountWork installs the work counter (true: an exploration, with the memo
// expressions it built up to its end or pause; false: a re-costing of a held
// memo) and returns the function that removes it.
func CountWork(f func(explored bool, exprs int)) (restore func()) {
	onWork = f
	return func() { onWork = nil }
}
