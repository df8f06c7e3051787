package qtrtest_test

import (
	"fmt"
	"log"
	"strings"
	"testing"

	"qtrtest"
)

func TestQueryAndExplain(t *testing.T) {
	db := qtrtest.OpenTPCH(1.0, 42)
	rows, names, err := db.Query("SELECT n_name FROM nation WHERE n_regionkey = 0 ORDER BY n_name")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "n_name" {
		t.Errorf("names = %v", names)
	}
	if len(rows) != 5 {
		t.Errorf("rows = %d, want 5 (nations per region)", len(rows))
	}
	plan, err := db.Explain("SELECT * FROM nation JOIN region ON n_regionkey = r_regionkey")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Join") {
		t.Errorf("plan missing join:\n%s", plan)
	}
}

func TestRuleSetAndDisable(t *testing.T) {
	db := qtrtest.OpenTPCH(1.0, 42)
	q := "SELECT * FROM (SELECT * FROM nation JOIN region ON n_regionkey = r_regionkey) AS t WHERE n_nationkey > 5"
	rs, err := db.RuleSetOf(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no rules exercised")
	}
	with, _, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range rs.Sorted() {
		if id > 100 {
			continue
		}
		without, err := db.QueryDisabled(q, id)
		if err != nil {
			t.Fatalf("rule %d: %v", id, err)
		}
		if !qtrtest.EqualResults(with, without) {
			t.Errorf("rule %d changes results", id)
		}
	}
	// An id no rule has is an error, as it is to verify -rules.
	const want = "no rule with id 999"
	if _, err := db.Optimize(q, 999); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Optimize with rule 999 disabled: err = %v, want %q", err, want)
	}
	if _, err := db.QueryDisabled(q, 14, 999); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("QueryDisabled with rule 999 disabled: err = %v, want %q", err, want)
	}
}

func TestFacadeGeneratorAndSuite(t *testing.T) {
	db := qtrtest.OpenTPCH(1.0, 42)
	gen, err := db.NewGenerator(qtrtest.GenConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q, err := gen.GeneratePattern(9)
	if err != nil {
		t.Fatal(err)
	}
	if !q.RuleSet.Contains(9) {
		t.Error("generated query does not exercise rule 9")
	}

	g, err := db.GenerateSuite(qtrtest.SingletonTargets(db.ExplorationRuleIDs(4)),
		qtrtest.SuiteConfig{K: 2, Seed: 1, ExtraOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := g.TopKIndependent()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Run(sol, db.Optimizer, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 0 {
		t.Errorf("unexpected correctness bugs: %d", len(rep.Mismatches))
	}
}

func TestPatternXMLExport(t *testing.T) {
	db := qtrtest.OpenTPCH(1.0, 42)
	r, err := db.Registry.ByID(14)
	if err != nil {
		t.Fatal(err)
	}
	data, err := qtrtest.PatternXML(r.Pattern())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `op="GroupBy"`) {
		t.Errorf("pattern XML wrong: %s", data)
	}
}

func TestExplorationRuleIDs(t *testing.T) {
	db := qtrtest.OpenTPCH(1.0, 42)
	if got := len(db.ExplorationRuleIDs(0)); got != 30 {
		t.Errorf("all exploration rules = %d, want 30", got)
	}
	if got := len(db.ExplorationRuleIDs(7)); got != 7 {
		t.Errorf("first 7 = %d", got)
	}
}

func TestFormatRows(t *testing.T) {
	db := qtrtest.OpenTPCH(1.0, 42)
	rows, names, err := db.Query("SELECT r_name FROM region WHERE r_regionkey = 2")
	if err != nil {
		t.Fatal(err)
	}
	out := qtrtest.FormatRows(rows, names)
	if !strings.Contains(out, "ASIA") {
		t.Errorf("FormatRows output: %s", out)
	}
}

// ExampleDB_Query demonstrates running SQL against the bundled TPC-H data.
func ExampleDB_Query() {
	db := qtrtest.OpenTPCH(1.0, 42)
	rows, _, err := db.Query("SELECT n_name FROM nation WHERE n_regionkey = 3 ORDER BY n_name")
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Println(r[0].Str())
	}
	// Output:
	// CANADA
	// CHINA
	// INDIA
	// JORDAN
	// UNITED KINGDOM
}

// ExampleDB_RuleSetOf shows RuleSet(q): which transformation rules a query
// exercises during optimization.
func ExampleDB_RuleSetOf() {
	db := qtrtest.OpenTPCH(1.0, 42)
	rs, err := db.RuleSetOf("SELECT * FROM nation JOIN region ON n_regionkey = r_regionkey")
	if err != nil {
		log.Fatal(err)
	}
	r, _ := db.Registry.ByID(rs.Sorted()[0])
	fmt.Println(r.Name())
	// Output:
	// JoinCommute
}

// ExampleGenerator_GeneratePattern shows rule-targeted query generation.
func ExampleGenerator_GeneratePattern() {
	db := qtrtest.OpenTPCH(1.0, 42)
	gen, err := db.NewGenerator(qtrtest.GenConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	q, err := gen.GeneratePattern(1) // JoinCommute
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(q.RuleSet.Contains(1), q.Trials == 1)
	// Output:
	// true true
}

func TestAnalyzeFacade(t *testing.T) {
	db := qtrtest.OpenTPCH(1.0, 42)
	rows, stats, err := db.Analyze("SELECT c_nationkey, COUNT(*) AS n FROM customer GROUP BY c_nationkey")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != stats.ActRows {
		t.Errorf("analyze root actual %d != result rows %d", stats.ActRows, len(rows))
	}
	if stats.MaxQError() > 10 {
		t.Errorf("q-error %f unexpectedly large for an FK-style aggregate", stats.MaxQError())
	}
}

func TestOpenStarQueries(t *testing.T) {
	db := qtrtest.OpenStar(1.0, 42)
	rows, _, err := db.Query("SELECT s_channel, COUNT(*) AS n FROM sales JOIN store ON f_storekey = s_storekey GROUP BY s_channel")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) > 4 {
		t.Errorf("star channels = %d, want 1..4", len(rows))
	}
	// The coverage machinery works on this schema too.
	gen, err := db.NewGenerator(qtrtest.GenConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	q, err := gen.GeneratePattern(1)
	if err != nil {
		t.Fatal(err)
	}
	if !q.RuleSet.Contains(1) {
		t.Error("rule 1 not exercised on star schema")
	}
}

func TestInteractionsExposed(t *testing.T) {
	db := qtrtest.OpenTPCH(1.0, 42)
	res, err := db.Optimize("SELECT * FROM (SELECT * FROM nation JOIN region ON n_regionkey = r_regionkey) AS t WHERE n_nationkey > 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Interactions) == 0 {
		t.Error("expected rule interactions on a select-over-join query")
	}
}

func TestDistinctEndToEnd(t *testing.T) {
	db := qtrtest.OpenTPCH(1.0, 42)
	rows, _, err := db.Query("SELECT DISTINCT o_orderstatus FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Errorf("distinct statuses = %d, want 3", len(rows))
	}
}
