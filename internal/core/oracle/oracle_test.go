package oracle

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/exec"
	"qtrtest/internal/logical"
	"qtrtest/internal/opt"
	"qtrtest/internal/physical"
	"qtrtest/internal/rescache"
	"qtrtest/internal/rules"
)

// stubBackend is a tree-capable backend whose every execution ends the same
// way, so the backend-side error and cap paths can be reached on demand.
type stubBackend struct {
	id   exec.Engine
	name string
	err  error
}

func (b stubBackend) Engine() exec.Engine { return b.id }
func (b stubBackend) Name() string        { return b.name }
func (b stubBackend) RunPlan(*physical.Expr, *catalog.Catalog, int, int64) ([]datum.Row, error) {
	return nil, b.err
}
func (b stubBackend) RunTree(*logical.Expr, *catalog.Catalog, int, int64) ([]datum.Row, error) {
	return nil, b.err
}

func init() {
	exec.RegisterBackend(stubBackend{id: 101, name: "stub-fails", err: errors.New("stub exploded")})
	exec.RegisterBackend(stubBackend{id: 102, name: "stub-caps", err: exec.ErrRowLimit})
}

type fixture struct {
	cat *catalog.Catalog
	// nation and its reoptimized twin return the same 25 rows from
	// different plans; filtered returns fewer; the limit pair returns three
	// rows each, chosen differently, with no order to say which.
	nation, twin, filtered, limitA, limitB, region Plan
	nationTree                                     *logical.Expr
}

func newFixture(t *testing.T) fixture {
	t.Helper()
	cat := catalog.LoadTPCH(catalog.TPCHConfig{ScaleRows: 0.01, Seed: 1})
	o := opt.New(rules.DefaultRegistry(), cat)
	plan := func(sql string, disabled ...rules.ID) (Plan, *opt.Result, *logical.Expr) {
		bound, err := bind.BindSQL(sql, cat)
		if err != nil {
			t.Fatalf("bind %q: %v", sql, err)
		}
		res, err := o.Optimize(bound.Tree, bound.MD, opt.Options{Disabled: rules.NewSet(disabled...)})
		if err != nil {
			t.Fatalf("optimize %q: %v", sql, err)
		}
		return Prepare(res.Plan), res, bound.Tree
	}
	const joined = "SELECT n_name, r_name FROM nation JOIN region ON n_regionkey = r_regionkey WHERE n_nationkey >= 0"
	f := fixture{cat: cat}
	var res *opt.Result
	f.nation, res, f.nationTree = plan(joined)
	for _, id := range res.RuleSet.Sorted() {
		if twin, _, _ := plan(joined, id); twin.Hash != f.nation.Hash {
			f.twin = twin
			break
		}
	}
	if f.twin.Expr == nil {
		t.Fatal("no single disabled rule changes the join plan")
	}
	f.filtered, _, _ = plan(joined + " AND r_regionkey = 1")
	f.limitA, _, _ = plan("SELECT n_name FROM nation LIMIT 3")
	f.limitB, _, _ = plan("SELECT n_name FROM nation WHERE n_regionkey = 1 LIMIT 3")
	f.region, _, _ = plan("SELECT r_name FROM region WHERE r_regionkey = 1")
	return f
}

// TestRunnerTaxonomy pins every verdict, with and without a cache: what is
// skipped, what is capped, what is a finding.
func TestRunnerTaxonomy(t *testing.T) {
	f := newFixture(t)
	type step struct {
		name    string
		opts    Options // Cache is filled per run
		base    Plan
		alt     Plan          // Edge when set
		tree    *logical.Expr // Cross otherwise
		want    Verdict
		detail  string // substring of Outcome.Detail
		lookups int64  // cache lookups the step may perform beyond Base's one
	}
	steps := []step{
		{name: "identical plan", base: f.nation, alt: f.nation, want: Identical},
		{name: "same rows, different plan", base: f.nation, alt: f.twin, want: Match, lookups: 1},
		{name: "different rows", base: f.nation, alt: f.filtered, want: Mismatch, detail: "row count mismatch", lookups: 1},
		{name: "limit without order", base: f.limitA, alt: f.limitB, want: Undetermined, detail: "LIMIT without a total order", lookups: 1},
		{name: "alternative over the row cap", opts: Options{MaxRows: 3}, base: f.region, alt: f.nation, want: Capped, lookups: 1},
		{name: "alternative over the work cap", opts: Options{MaxWork: 8}, base: f.region, alt: f.nation, want: Capped, lookups: 1},
		{name: "no backend", base: f.nation, tree: f.nationTree, want: Identical},
		{name: "backend agrees", opts: Options{Backend: "ref"}, base: f.nation, tree: f.nationTree, want: Match, lookups: 1},
		{name: "row engine as backend agrees", opts: Options{Backend: "row"}, base: f.nation, tree: f.nationTree, want: Match, lookups: 1},
		{name: "backend over its budget", opts: Options{Backend: "stub-caps"}, base: f.nation, tree: f.nationTree, want: Capped, lookups: 1},
		{name: "backend fails to execute", opts: Options{Backend: "stub-fails"}, base: f.nation, tree: f.nationTree,
			want: Mismatch, detail: "backend stub-fails execution: stub exploded", lookups: 1},
	}
	for _, st := range steps {
		var outcomes []Outcome
		for _, rc := range []*rescache.Cache{nil, rescache.New(0)} {
			st.opts.Cache = rc
			rn, err := New(st.opts)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			base, err := rn.Base(f.cat, st.base)
			if err != nil {
				t.Fatalf("%s: base: %v", st.name, err)
			}
			before := rc.Stats()
			var out Outcome
			if st.alt.Expr != nil {
				out, err = rn.Edge(&base, st.alt)
			} else {
				out, err = rn.Cross(&base, st.tree)
			}
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			after := rc.Stats()
			if got := after.Hits + after.Misses - before.Hits - before.Misses; rc != nil && got != st.lookups {
				t.Errorf("%s: %d cache lookups, want %d", st.name, got, st.lookups)
			}
			if out.Verdict != st.want || !strings.Contains(out.Detail, st.detail) {
				t.Errorf("%s: got %+v, want verdict %d with detail %q", st.name, out, st.want, st.detail)
			}
			outcomes = append(outcomes, out)
		}
		if !reflect.DeepEqual(outcomes[0], outcomes[1]) {
			t.Errorf("%s: nil cache gave %+v, a cache %+v", st.name, outcomes[0], outcomes[1])
		}
	}
}

// TestIdenticalSkipCostsNothing: the skip sits ahead of the cache and of the
// compiler — no lookup, no operator tree, not one allocation.
func TestIdenticalSkipCostsNothing(t *testing.T) {
	f := newFixture(t)
	rn, err := New(Options{Cache: rescache.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	base, err := rn.Base(f.cat, f.nation)
	if err != nil {
		t.Fatal(err)
	}
	same := Prepare(f.nation.Expr)
	if n := testing.AllocsPerRun(100, func() {
		if out, err := rn.Edge(&base, same); err != nil || out.Verdict != Identical {
			t.Fatalf("%+v, %v", out, err)
		}
	}); n != 0 {
		t.Errorf("an identical-plan skip allocates %.0f objects", n)
	}
}

// TestRunnerBaseCapIsNotAVerdict: a cap on the base side leaves nothing to
// compare against — an error the campaign skips on, never a Base.
func TestRunnerBaseCapIsNotAVerdict(t *testing.T) {
	f := newFixture(t)
	for _, opts := range []Options{{MaxRows: 3}, {MaxWork: 8}} {
		rn, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rn.Base(f.cat, f.nation); !errors.Is(err, exec.ErrRowLimit) {
			t.Errorf("%+v: base over the cap: err = %v, want ErrRowLimit", opts, err)
		}
	}
}

// TestRunnerMisuse: an unknown backend name fails New, and so does the
// engine campaigns execute on — a cross-check against it would report zero
// disagreements having compared nothing; a tree-capable backend handed no
// tree fails Cross instead of silently passing.
func TestRunnerMisuse(t *testing.T) {
	if _, err := New(Options{Backend: "bogus"}); err == nil {
		t.Error(`New(Backend: "bogus") succeeded`)
	}
	if _, err := New(Options{Backend: "batch"}); err == nil || !strings.Contains(err.Error(), `"batch"`) {
		t.Errorf(`New(Backend: "batch"): err = %v, want a rejection naming the engine`, err)
	}
	f := newFixture(t)
	rn, err := New(Options{Backend: "ref"})
	if err != nil {
		t.Fatal(err)
	}
	base, err := rn.Base(f.cat, f.nation)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := rn.Cross(&base, nil); err == nil {
		t.Errorf("Cross with no tree on a tree backend: %+v, want an error", out)
	}
	// A built-in engine as the backend re-executes the base plan and needs
	// no tree.
	rn, err = New(Options{Backend: "row"})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := rn.Cross(&base, nil); err != nil || out.Verdict != Match {
		t.Errorf("Cross on the row engine with no tree: %+v, %v, want Match", out, err)
	}
}
