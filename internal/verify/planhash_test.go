package verify

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qtrtest/internal/bind"
	"qtrtest/internal/catalog"
	"qtrtest/internal/core/qgen"
	"qtrtest/internal/fuzz"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/mutate"
	"qtrtest/internal/opt"
	"qtrtest/internal/physical"
	"qtrtest/internal/rules"
	"qtrtest/internal/scalar"
	"qtrtest/internal/sqlgen"
)

// fmtHash is physical.Expr.Hash written with fmt, aggregates included, its
// scalars by scalar.HashInto: the reference its bytes must match. The plan
// text is a plan's identity (equal text if and only if equal plan) and no
// report prints it.
func fmtHash(e *physical.Expr) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d/%d|", e.Op, e.JoinType)
	switch e.Op {
	case physical.OpScan:
		fmt.Fprintf(&sb, "%s%v", e.Table, e.Cols)
	case physical.OpFilter:
		scalar.HashInto(e.Filter, &sb)
	case physical.OpHashJoin, physical.OpNLJoin, physical.OpMergeJoin:
		if e.On != nil {
			scalar.HashInto(e.On, &sb)
		}
		fmt.Fprintf(&sb, "%v%v", e.EquiLeft, e.EquiRight)
	case physical.OpProject:
		for _, p := range e.Projs {
			fmt.Fprintf(&sb, "%d=", p.Out)
			scalar.HashInto(p.E, &sb)
			sb.WriteString(";")
		}
	case physical.OpHashAgg, physical.OpSortAgg:
		fmt.Fprintf(&sb, "%v|", e.GroupCols)
		for _, a := range e.Aggs {
			if a.Op == scalar.AggCountStar {
				fmt.Fprintf(&sb, "cnt*->%d", a.Out)
			} else {
				fmt.Fprintf(&sb, "%d(", a.Op)
				scalar.HashInto(a.Arg, &sb)
				fmt.Fprintf(&sb, ")->%d", a.Out)
			}
		}
	case physical.OpConcat:
		fmt.Fprintf(&sb, "%v%v", e.OutCols, e.InputCols)
	case physical.OpLimit:
		fmt.Fprintf(&sb, "%d", e.N)
	case physical.OpSort:
		fmt.Fprintf(&sb, "%v", e.Keys)
	}
	sb.WriteString("(")
	for _, c := range e.Children {
		sb.WriteString(fmtHash(c))
	}
	sb.WriteString(")")
	return sb.String()
}

// TestPlanHashMatchesFmtReference holds Expr.Hash to fmtHash, byte for byte,
// over every plan three corpora produce: every verify instantiation's base and
// alternatives under the pristine, EET-extended and every mutant registry;
// the optimizer smoke queries' plans; and 200 fuzz-drawn queries per schema
// (TPC-H, star, a random catalog), each Plan(q) with every Plan(q,¬R).
func TestPlanHashMatchesFmtReference(t *testing.T) {
	plans, ops := 0, map[physical.Op]bool{}
	check := func(where string, p *physical.Expr) {
		t.Helper()
		if got, want := p.Hash(), fmtHash(p); got != want {
			t.Fatalf("%s: Hash\n%s\nfmt reference\n%s", where, got, want)
		}
		plans++
		var walk func(*physical.Expr)
		walk = func(e *physical.Expr) {
			ops[e.Op] = true
			for _, c := range e.Children {
				walk(c)
			}
		}
		walk(p)
	}

	regs := map[string]*rules.Registry{"pristine": rules.DefaultRegistry(), "eet": rules.RegistryWithEET()}
	for _, m := range mutate.Mutants() {
		regs[string(m.Kind)] = m.Registry()
	}
	for name, reg := range regs {
		for _, r := range reg.All() {
			res := &ruleResult{ctx: rules.Context{Memo: new(memo.Memo)}}
			insts, _ := enumerate(r.Pattern())
			for i, inst := range insts {
				_, base, alts := res.plans(r, inst)
				if base != nil {
					check(fmt.Sprintf("%s rule %d instance %d base", name, r.ID(), i), base)
				}
				for k, alt := range alts {
					check(fmt.Sprintf("%s rule %d instance %d alternative %d", name, r.ID(), i, k), alt)
				}
			}
		}
	}

	// optimized checks Plan(q) and every Plan(q,¬R) of one bound query.
	optimized := func(where string, o *opt.Optimizer, b *bind.Bound) {
		t.Helper()
		res, err := o.Optimize(b.Tree, b.MD, opt.Options{})
		if err != nil {
			return
		}
		defer res.Release()
		check(where, res.Plan)
		for _, id := range res.RuleSet.Sorted() {
			if alt, err := res.Without(id); err == nil {
				check(fmt.Sprintf("%s without rule %d", where, id), alt)
			}
		}
	}
	tpch := catalog.LoadTPCH(catalog.DefaultTPCHConfig())
	o := opt.New(rules.DefaultRegistry(), tpch)
	for _, q := range []string{
		"SELECT n_name FROM nation WHERE n_regionkey = 2",
		"SELECT n_name, r_name FROM nation JOIN region ON n_regionkey = r_regionkey WHERE r_name = 'ASIA'",
		"SELECT c_nationkey, COUNT(*) AS cnt FROM customer GROUP BY c_nationkey",
		"SELECT c_name FROM customer LEFT JOIN nation ON c_nationkey = n_nationkey WHERE c_acctbal > 0",
		"SELECT o_orderkey FROM orders WHERE EXISTS (SELECT 1 AS one FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 30)",
		"SELECT o_orderkey FROM orders WHERE NOT EXISTS (SELECT 1 AS one FROM lineitem WHERE l_orderkey = o_orderkey)",
		"SELECT n_name FROM nation UNION ALL SELECT r_name FROM region",
		"SELECT s_nationkey, MAX(s_acctbal) AS m FROM supplier JOIN nation ON s_nationkey = n_nationkey GROUP BY s_nationkey",
	} {
		b, err := bind.BindSQL(q, tpch)
		if err != nil {
			t.Fatalf("bind %q: %v", q, err)
		}
		optimized(q, o, b)
	}

	for _, db := range []struct {
		name string
		cat  *catalog.Catalog
	}{
		{"tpch", tpch},
		{"star", catalog.LoadStar(catalog.DefaultStarConfig())},
		{"rand", fuzz.RandomCatalog(42)},
	} {
		o := opt.New(rules.DefaultRegistry(), db.cat)
		gen, err := qgen.New(o, qgen.Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 200; i++ {
			md := logical.NewMetadata(db.cat)
			tree, err := gen.Fork(int64(i)).RandomTreeWeighted(md, 2+rng.Intn(6), qgen.DefaultWeights())
			if err != nil {
				continue
			}
			text, err := sqlgen.Generate(tree, md)
			if err != nil {
				continue
			}
			b, err := bind.BindSQL(text, db.cat)
			if err != nil {
				continue
			}
			optimized(fmt.Sprintf("%s query %d %q", db.name, i, text), o, b)
		}
	}
	t.Logf("%d plans hashed alike", plans)
	for op := physical.OpScan; op <= physical.OpConcat; op++ {
		if !ops[op] {
			t.Errorf("no plan holds a %s", op)
		}
	}
}
