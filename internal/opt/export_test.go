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
