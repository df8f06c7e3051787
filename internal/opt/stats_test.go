package opt

import (
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/memo"
	"qtrtest/internal/rules"
)

// estimate optimizes a query and returns the root plan's estimated rows and
// the actual number of rows it produces.
func estimate(t *testing.T, o *Optimizer, q string) (est float64) {
	t.Helper()
	bound, err := bind.BindSQL(q, o.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Optimize(bound.Tree, bound.MD, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan.Rows
}

func TestScanCardinality(t *testing.T) {
	o, cat := harness(t)
	got := estimate(t, o, "SELECT * FROM nation")
	want := float64(cat.MustTable("nation").Stats.RowCount)
	if got != want {
		t.Errorf("scan estimate %f, want %f", got, want)
	}
}

func TestEqualityFilterUsesDistinctOrHistogram(t *testing.T) {
	o, cat := harness(t)
	rows := float64(cat.MustTable("customer").Stats.RowCount)
	got := estimate(t, o, "SELECT * FROM customer WHERE c_nationkey = 3")
	// 25 nation keys: expect roughly rows/25, certainly well below half.
	if got <= 0 || got > rows/2 {
		t.Errorf("equality estimate %f out of range (table %f)", got, rows)
	}
}

func TestRangeFilterUsesHistogram(t *testing.T) {
	o, cat := harness(t)
	rows := float64(cat.MustTable("lineitem").Stats.RowCount)
	// l_quantity uniform on [1,50]: quantity <= 10 ≈ 20%.
	got := estimate(t, o, "SELECT * FROM lineitem WHERE l_quantity <= 10")
	frac := got / rows
	if frac < 0.1 || frac > 0.35 {
		t.Errorf("range estimate fraction %f, want ~0.2 via histogram", frac)
	}
	// Without a histogram this would be the fixed 1/3 guess; the histogram
	// should beat it for a very selective range.
	got2 := estimate(t, o, "SELECT * FROM lineitem WHERE l_quantity <= 2")
	if got2/rows > 0.15 {
		t.Errorf("selective range estimate fraction %f, want < 0.15", got2/rows)
	}
}

func TestJoinCardinalityFKLike(t *testing.T) {
	o, cat := harness(t)
	nation := float64(cat.MustTable("nation").Stats.RowCount)
	customer := float64(cat.MustTable("customer").Stats.RowCount)
	got := estimate(t, o, "SELECT * FROM customer JOIN nation ON c_nationkey = n_nationkey")
	// FK join: about one output row per customer.
	if got < customer/3 || got > customer*3 {
		t.Errorf("FK join estimate %f, want ≈ %f", got, customer)
	}
	_ = nation
}

func TestGroupByCardinality(t *testing.T) {
	o, _ := harness(t)
	got := estimate(t, o, "SELECT c_nationkey, COUNT(*) AS n FROM customer GROUP BY c_nationkey")
	// At most 25 nation keys.
	if got <= 0 || got > 30 {
		t.Errorf("group-by estimate %f, want <= 25-ish", got)
	}
	scalarAgg := estimate(t, o, "SELECT COUNT(*) AS n FROM customer")
	if scalarAgg != 1 {
		t.Errorf("scalar aggregate estimate %f, want 1", scalarAgg)
	}
}

func TestUnionCardinality(t *testing.T) {
	o, cat := harness(t)
	got := estimate(t, o, "SELECT n_name FROM nation UNION ALL SELECT r_name FROM region")
	want := float64(cat.MustTable("nation").Stats.RowCount + cat.MustTable("region").Stats.RowCount)
	if got != want {
		t.Errorf("union estimate %f, want %f", got, want)
	}
}

func TestLimitCardinality(t *testing.T) {
	o, _ := harness(t)
	got := estimate(t, o, "SELECT * FROM customer LIMIT 7")
	if got != 7 {
		t.Errorf("limit estimate %f, want 7", got)
	}
}

func TestSemiAntiCardinalityPartition(t *testing.T) {
	o, cat := harness(t)
	total := float64(cat.MustTable("customer").Stats.RowCount)
	semi := estimate(t, o, "SELECT c_name FROM customer WHERE EXISTS (SELECT 1 AS one FROM orders WHERE o_custkey = c_custkey)")
	anti := estimate(t, o, "SELECT c_name FROM customer WHERE NOT EXISTS (SELECT 1 AS one FROM orders WHERE o_custkey = c_custkey)")
	if semi <= 0 || anti < 0 {
		t.Fatalf("bad estimates: semi %f anti %f", semi, anti)
	}
	// Semi + anti should roughly partition the input.
	if sum := semi + anti; sum < total*0.5 || sum > total*1.5 {
		t.Errorf("semi (%f) + anti (%f) = %f, want ≈ %f", semi, anti, sum, total)
	}
}

func TestStatsCachePerGroup(t *testing.T) {
	cat := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	o := New(rules.DefaultRegistry(), cat)
	bound, err := bind.BindSQL("SELECT * FROM nation JOIN region ON n_regionkey = r_regionkey", cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Optimize(bound.Tree, bound.MD, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb statsBuilder
	sb.reset(res.Memo, false)
	a := sb.stats(memo.GroupID(1))
	b := sb.stats(memo.GroupID(1))
	if a != b {
		t.Error("stats should be cached per group")
	}
}
