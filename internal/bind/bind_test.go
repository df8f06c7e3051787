package bind

import (
	"strings"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/logical"
	"qtrtest/internal/scalar"
)

func testCatalog() *catalog.Catalog {
	return catalog.LoadTPCH(catalog.DefaultTPCHConfig())
}

func mustBind(t *testing.T, q string) *Bound {
	t.Helper()
	b, err := BindSQL(q, testCatalog())
	if err != nil {
		t.Fatalf("BindSQL(%q): %v", q, err)
	}
	return b
}

func ops(e *logical.Expr) []logical.Op {
	var out []logical.Op
	e.Walk(func(x *logical.Expr) { out = append(out, x.Op) })
	return out
}

func TestBindSimpleSelect(t *testing.T) {
	b := mustBind(t, "SELECT n_name FROM nation WHERE n_regionkey = 2")
	got := ops(b.Tree)
	want := []logical.Op{logical.OpProject, logical.OpSelect, logical.OpGet}
	if len(got) != len(want) {
		t.Fatalf("ops = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ops = %v, want %v", got, want)
		}
	}
	if len(b.OutNames) != 1 || b.OutNames[0] != "n_name" {
		t.Errorf("out names: %v", b.OutNames)
	}
}

func TestBindStarSkipsIdentityProject(t *testing.T) {
	// SELECT * over a WHERE must not interpose a Project between Select and
	// the join — rule patterns depend on it. But the ROOT must still pin
	// column order, so the topmost node is a Project.
	b := mustBind(t, "SELECT * FROM (SELECT * FROM nation JOIN region ON n_regionkey = r_regionkey) AS t WHERE n_nationkey > 3")
	got := ops(b.Tree)
	want := []logical.Op{logical.OpProject, logical.OpSelect, logical.OpJoin, logical.OpGet, logical.OpGet}
	if len(got) != len(want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ops = %v, want %v", got, want)
		}
	}
}

func TestBindSelfJoinDistinctColumns(t *testing.T) {
	b := mustBind(t, "SELECT t1.n_name, t2.n_name FROM nation AS t1 JOIN nation AS t2 ON t1.n_nationkey = t2.n_regionkey")
	proj := b.Tree
	if proj.Op != logical.OpProject {
		t.Fatal("root should be a project")
	}
	if proj.Projs[0].Out == proj.Projs[1].Out {
		t.Error("self-join columns must get distinct output ids")
	}
}

func TestBindAmbiguousColumn(t *testing.T) {
	if _, err := BindSQL("SELECT n_name FROM nation AS a JOIN nation AS b ON a.n_nationkey = b.n_nationkey", testCatalog()); err == nil {
		t.Error("ambiguous column must error")
	}
	if _, err := BindSQL("SELECT nope FROM nation", testCatalog()); err == nil {
		t.Error("unknown column must error")
	}
	if _, err := BindSQL("SELECT n_name FROM nope", testCatalog()); err == nil {
		t.Error("unknown table must error")
	}
}

// TestBindDuplicateAlias: a FROM clause that names one alias twice is
// rejected up front. Over two different tables it used to plan, t.col binding
// to whichever side had col; over one table it failed later with a misleading
// "ambiguous" error.
func TestBindDuplicateAlias(t *testing.T) {
	const want = `bind: table alias "t" specified more than once`
	for _, q := range []string{
		"SELECT * FROM nation t JOIN region t ON t.n_regionkey = t.r_regionkey",
		"SELECT t.n_name FROM nation t JOIN nation t ON t.n_nationkey = t.n_regionkey",
		"SELECT * FROM nation AS t JOIN (SELECT r_regionkey FROM region) AS t ON n_regionkey = r_regionkey",
		"SELECT * FROM region JOIN nation t ON r_regionkey = n_regionkey JOIN supplier AS t ON s_nationkey = n_nationkey",
	} {
		if _, err := BindSQL(q, testCatalog()); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", q, err, want)
		}
	}
	if _, err := BindSQL("SELECT * FROM nation JOIN nation ON n_nationkey = n_regionkey", testCatalog()); err == nil ||
		!strings.Contains(err.Error(), `table alias "nation" specified more than once`) {
		t.Errorf("unaliased self-join: err = %v, want the duplicate-alias error", err)
	}
	// An alias may come back in another FROM clause: a derived table's, or
	// an EXISTS subquery's.
	for _, q := range []string{
		"SELECT * FROM (SELECT n_nationkey FROM nation t) AS t",
		"SELECT * FROM nation t WHERE EXISTS (SELECT r_regionkey FROM region t WHERE r_regionkey = n_regionkey)",
		"SELECT * FROM (SELECT * FROM nation t) AS a JOIN (SELECT * FROM region t) AS b ON n_regionkey = r_regionkey",
	} {
		mustBind(t, q)
	}
}

func TestBindGroupBy(t *testing.T) {
	b := mustBind(t, "SELECT n_regionkey, COUNT(*) AS cnt, MAX(n_nationkey) AS m FROM nation GROUP BY n_regionkey")
	var gb *logical.Expr
	b.Tree.Walk(func(e *logical.Expr) {
		if e.Op == logical.OpGroupBy {
			gb = e
		}
	})
	if gb == nil {
		t.Fatal("no GroupBy bound")
	}
	if len(gb.GroupCols) != 1 || len(gb.Aggs) != 2 {
		t.Errorf("groupby shape: %d cols, %d aggs", len(gb.GroupCols), len(gb.Aggs))
	}
	if b.OutNames[1] != "cnt" || b.OutNames[2] != "m" {
		t.Errorf("out names: %v", b.OutNames)
	}
}

func TestBindGroupByValidation(t *testing.T) {
	if _, err := BindSQL("SELECT n_name FROM nation GROUP BY n_regionkey", testCatalog()); err == nil {
		t.Error("non-grouped column in select list must error")
	}
	if _, err := BindSQL("SELECT * FROM nation GROUP BY n_regionkey", testCatalog()); err == nil {
		t.Error("SELECT * with GROUP BY must error")
	}
	if _, err := BindSQL("SELECT COUNT(*) AS c FROM nation WHERE COUNT(*) > 1", testCatalog()); err == nil {
		t.Error("aggregate in WHERE must error")
	}
}

func TestBindExistsToSemiJoin(t *testing.T) {
	b := mustBind(t, "SELECT o_orderkey FROM orders WHERE EXISTS (SELECT 1 AS one FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 10)")
	var semi *logical.Expr
	b.Tree.Walk(func(e *logical.Expr) {
		if e.Op == logical.OpSemiJoin {
			semi = e
		}
	})
	if semi == nil {
		t.Fatal("EXISTS did not become a semi join")
	}
	// The correlated conjunct becomes the join predicate; the local one
	// stays below as a Select on the inner side.
	if semi.Children[1].Op != logical.OpSelect {
		t.Errorf("inner side should keep its local filter, got %s", semi.Children[1].Op)
	}
}

func TestBindNotExistsToAntiJoin(t *testing.T) {
	b := mustBind(t, "SELECT c_name FROM customer WHERE NOT EXISTS (SELECT 1 AS one FROM orders WHERE o_custkey = c_custkey)")
	found := false
	b.Tree.Walk(func(e *logical.Expr) {
		if e.Op == logical.OpAntiJoin {
			found = true
		}
	})
	if !found {
		t.Error("NOT EXISTS did not become an anti join")
	}
}

func TestBindUnionAll(t *testing.T) {
	b := mustBind(t, "SELECT n_name FROM nation UNION ALL SELECT r_name FROM region")
	if b.Tree.Op != logical.OpUnionAll {
		t.Fatalf("root = %s", b.Tree.Op)
	}
	if len(b.Tree.OutCols) != 1 || len(b.Tree.InputCols) != 2 {
		t.Error("union col mapping wrong")
	}
	if _, err := BindSQL("SELECT n_name FROM nation UNION ALL SELECT r_regionkey, r_name FROM region", testCatalog()); err == nil {
		t.Error("union arity mismatch must error")
	}
}

func TestBindOrderByLimitPinsOrder(t *testing.T) {
	b := mustBind(t, "SELECT * FROM nation WHERE n_nationkey > 1 ORDER BY n_name DESC LIMIT 3")
	got := ops(b.Tree)
	want := []logical.Op{logical.OpLimit, logical.OpSort, logical.OpProject, logical.OpSelect, logical.OpGet}
	if len(got) != len(want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ops = %v, want %v", got, want)
		}
	}
	if b.Tree.Children[0].Keys[0].Desc != true {
		t.Error("sort key direction lost")
	}
}

func TestBindComputedProjection(t *testing.T) {
	b := mustBind(t, "SELECT n_nationkey + 1 AS nk FROM nation")
	proj := b.Tree
	if proj.Op != logical.OpProject {
		t.Fatal("root must be project")
	}
	if b.OutNames[0] != "nk" {
		t.Errorf("alias lost: %v", b.OutNames)
	}
	md := b.MD
	if md.Column(proj.Projs[0].Out).Name != "nk" {
		t.Error("computed column metadata name wrong")
	}
}

func TestBindDuplicateSelectItem(t *testing.T) {
	b := mustBind(t, "SELECT n_name, n_name FROM nation")
	proj := b.Tree
	if proj.Projs[0].Out == proj.Projs[1].Out {
		t.Error("duplicate select items must get distinct output ids")
	}
}

func TestBindErrorMessages(t *testing.T) {
	_, err := BindSQL("SELECT x.n_name FROM nation", testCatalog())
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("qualified miss: %v", err)
	}
}

func TestBindHaving(t *testing.T) {
	// HAVING reusing the select-list aggregate.
	b := mustBind(t, "SELECT c_nationkey, COUNT(*) AS n FROM customer GROUP BY c_nationkey HAVING COUNT(*) > 4")
	var gb, sel *logical.Expr
	b.Tree.Walk(func(e *logical.Expr) {
		switch e.Op {
		case logical.OpGroupBy:
			gb = e
		case logical.OpSelect:
			sel = e
		}
	})
	if gb == nil || sel == nil {
		t.Fatal("HAVING should bind to Select over GroupBy")
	}
	if len(gb.Aggs) != 1 {
		t.Errorf("HAVING should reuse the select-list COUNT(*), aggs = %d", len(gb.Aggs))
	}
	// HAVING introducing a new aggregate.
	b2 := mustBind(t, "SELECT c_nationkey FROM customer GROUP BY c_nationkey HAVING MAX(c_acctbal) > 0")
	var gb2 *logical.Expr
	b2.Tree.Walk(func(e *logical.Expr) {
		if e.Op == logical.OpGroupBy {
			gb2 = e
		}
	})
	if gb2 == nil || len(gb2.Aggs) != 1 {
		t.Fatal("HAVING must add its aggregate to the GroupBy")
	}
	// Output must still be just the selected column.
	if len(b2.OutNames) != 1 || b2.OutNames[0] != "c_nationkey" {
		t.Errorf("out names: %v", b2.OutNames)
	}
	// HAVING over a non-grouped plain column must fail.
	if _, err := BindSQL("SELECT c_nationkey, COUNT(*) AS n FROM customer GROUP BY c_nationkey HAVING c_name = 'x'", testCatalog()); err == nil {
		t.Error("HAVING on a non-grouped column must error")
	}
	if _, err := BindSQL("SELECT c_name FROM customer HAVING c_name = 'x'", testCatalog()); err == nil {
		t.Error("HAVING without aggregation must error")
	}
}

// TestBindHavingReusesOnlyEqualAggregates: HAVING reuses a select-list
// aggregate only when the two are structurally equal. SUM(n_nationkey + 1.0)
// is a FLOAT sum beside the INT SUM(n_nationkey + 1), although the two
// constants print alike, so it binds an aggregate of its own.
func TestBindHavingReusesOnlyEqualAggregates(t *testing.T) {
	for _, c := range []struct {
		having string
		aggs   int
	}{
		{"SUM(n_nationkey + 1)", 1},
		{"SUM(n_nationkey + 1.0)", 2},
	} {
		b := mustBind(t, "SELECT n_regionkey, SUM(n_nationkey + 1) FROM nation GROUP BY n_regionkey HAVING "+c.having+" > 0")
		var gb *logical.Expr
		b.Tree.Walk(func(e *logical.Expr) {
			if e.Op == logical.OpGroupBy {
				gb = e
			}
		})
		if gb == nil || len(gb.Aggs) != c.aggs {
			t.Fatalf("HAVING %s: want %d aggregate(s), got %+v", c.having, c.aggs, gb)
		}
	}
}

func TestBindInList(t *testing.T) {
	b := mustBind(t, "SELECT n_name FROM nation WHERE n_regionkey IN (0, 2, 4)")
	if b.Tree.Op != logical.OpProject {
		t.Fatal("root")
	}
	sel := b.Tree.Children[0]
	if sel.Op != logical.OpSelect {
		t.Fatalf("expected Select, got %s", sel.Op)
	}
	or, ok := sel.Filter.(*scalar.Or)
	if !ok || len(or.Kids) != 3 {
		t.Fatalf("IN should bind to a 3-way OR, got %T", sel.Filter)
	}
	// NOT IN becomes a negated OR.
	b2 := mustBind(t, "SELECT n_name FROM nation WHERE n_regionkey NOT IN (0, 2)")
	sel2 := b2.Tree.Children[0]
	if _, ok := sel2.Filter.(*scalar.Not); !ok {
		t.Fatalf("NOT IN should bind to NOT(OR), got %T", sel2.Filter)
	}
}

func TestBindBetween(t *testing.T) {
	b := mustBind(t, "SELECT o_orderkey FROM orders WHERE o_totalprice BETWEEN 1000 AND 2000")
	sel := b.Tree.Children[0]
	and, ok := sel.Filter.(*scalar.And)
	if !ok || len(and.Kids) != 2 {
		t.Fatalf("BETWEEN should bind to a 2-way AND, got %T", sel.Filter)
	}
}

func TestBindSelectDistinct(t *testing.T) {
	b := mustBind(t, "SELECT DISTINCT c_mktsegment FROM customer")
	if b.Tree.Op != logical.OpGroupBy {
		t.Fatalf("DISTINCT should bind to a GroupBy root, got %s", b.Tree.Op)
	}
	if len(b.Tree.GroupCols) != 1 || len(b.Tree.Aggs) != 0 {
		t.Errorf("distinct groupby shape: %d cols %d aggs", len(b.Tree.GroupCols), len(b.Tree.Aggs))
	}
	// DISTINCT with ORDER BY keeps both.
	b2 := mustBind(t, "SELECT DISTINCT n_regionkey FROM nation ORDER BY n_regionkey")
	if b2.Tree.Op != logical.OpSort || b2.Tree.Children[0].Op != logical.OpGroupBy {
		t.Errorf("ops = %v", ops(b2.Tree))
	}
}
