package opt

import "qtrtest/internal/rules"

// WithFirstFire sets the unexported first-fire probe for tests in package
// opt_test, which — unlike tests in this package — may import the query
// generator.
func (o Options) WithFirstFire(f func(r rules.ID, exprs int)) Options {
	o.onFirstFire = f
	return o
}
