package rules

import (
	"strings"
	"testing"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
	"qtrtest/internal/logical"
	"qtrtest/internal/memo"
	"qtrtest/internal/scalar"
)

func TestDefaultRegistryShape(t *testing.T) {
	reg := DefaultRegistry()
	if got := len(reg.Exploration()); got != 30 {
		t.Errorf("exploration rules = %d, want 30", got)
	}
	if got := len(reg.Implementation()); got != 17 {
		t.Errorf("implementation rules = %d, want 17", got)
	}
	for _, r := range reg.All() {
		if r.Pattern() == nil {
			t.Errorf("rule %d (%s) has no pattern", r.ID(), r.Name())
		}
		if r.Name() == "" {
			t.Errorf("rule %d has no name", r.ID())
		}
		got, err := reg.ByID(r.ID())
		if err != nil || got != r {
			t.Errorf("ByID(%d) broken", r.ID())
		}
		byName, err := reg.ByName(r.Name())
		if err != nil || byName != r {
			t.Errorf("ByName(%q) broken", r.Name())
		}
	}
	if _, err := reg.ByID(9999); err == nil {
		t.Error("ByID of unknown id must error")
	}
}

func TestRegistryReplacing(t *testing.T) {
	def := DefaultRegistry().All()
	orig := def[3]
	er := orig.(ExplorationRule)
	sub := NewExplorationRule(er.ID(), er.Name(), er.Pattern(), er.Apply)
	extra := NewExplorationRule(800, "ExtraRule", er.Pattern(), er.Apply)

	reg := RegistryReplacing("", sub, extra)
	all := reg.All()
	if len(all) != len(def)+1 {
		t.Fatalf("size = %d, want %d", len(all), len(def)+1)
	}
	for i, r := range def {
		if all[i].ID() != r.ID() || all[i].Name() != r.Name() {
			t.Errorf("slot %d: got %d (%s), want %d (%s)", i, all[i].ID(), all[i].Name(), r.ID(), r.Name())
		}
	}
	// The substitute must occupy the original's slot, not be appended:
	// definition order is the implementor's equal-cost tie-break.
	if all[3] != Rule(sub) {
		t.Errorf("slot 3 holds %T, want the substitute rule", all[3])
	}
	if all[len(all)-1].ID() != 800 {
		t.Errorf("last rule = %d, want the appended extra (800)", all[len(all)-1].ID())
	}
}

func TestRegistryReplacingPanicsOnUnknownID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on replacement for unknown rule id")
		}
	}()
	er := ExplorationRules()[0]
	RegistryReplacing("", NewExplorationRule(9999, "Nope", er.Pattern(), er.Apply))
}

func TestRegistryPanicsOnDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate rule id")
		}
	}()
	r := ExplorationRules()[0]
	NewRegistry(r, r)
}

func TestPatternString(t *testing.T) {
	p := P(logical.OpSelect, P(logical.OpJoin, Any(), Any()))
	if got := p.String(); got != "Select(Join(*, *))" {
		t.Errorf("String = %q", got)
	}
	if Any().String() != "*" {
		t.Error("generic renders as *")
	}
	if p.CountOps() != 4 {
		t.Errorf("CountOps = %d", p.CountOps())
	}
}

func TestPatternGenericsAndClone(t *testing.T) {
	p := P(logical.OpJoin, Any(), P(logical.OpGroupBy, Any()))
	gens := p.Generics()
	if len(gens) != 2 {
		t.Fatalf("generics = %d", len(gens))
	}
	cp := p.Clone()
	*cp.Generics()[0] = *P(logical.OpGet)
	if p.Generics()[0].Op != logical.OpAny {
		t.Error("Clone shares generic slots with the original")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	reg := DefaultRegistry()
	data, err := reg.ExportXML()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `name="JoinCommute"`) {
		t.Error("export missing rule names")
	}
	parsed, err := ParseExportXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(reg.All()) {
		t.Fatalf("parsed %d rules, want %d", len(parsed), len(reg.All()))
	}
	for i, er := range parsed {
		orig := reg.All()[i]
		if er.ID != orig.ID() || er.Name != orig.Name() || er.Kind != orig.Kind() {
			t.Errorf("rule %d metadata mismatch", er.ID)
		}
		if er.Pattern.String() != orig.Pattern().String() {
			t.Errorf("rule %d pattern mismatch: %s vs %s", er.ID, er.Pattern, orig.Pattern())
		}
	}
	// Single-pattern round trip.
	one, err := PatternXML(reg.All()[0].Pattern())
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParsePatternXML(one)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != reg.All()[0].Pattern().String() {
		t.Error("single pattern round trip mismatch")
	}
}

func TestParsePatternXMLErrors(t *testing.T) {
	if _, err := ParsePatternXML([]byte(`<pattern op="Bogus"/>`)); err == nil {
		t.Error("unknown op must error")
	}
	if _, err := ParsePatternXML([]byte(`not xml`)); err == nil {
		t.Error("malformed xml must error")
	}
}

// buildMemo builds a Select(Join(nation, region)) memo for binding tests.
func buildMemo(t *testing.T) (*memo.Memo, *memo.MExpr, *logical.Metadata) {
	t.Helper()
	md := logical.NewMetadata(catalog.LoadTPCH(catalog.DefaultTPCHConfig()))
	n, err := md.AddTable("nation")
	if err != nil {
		t.Fatal(err)
	}
	r, err := md.AddTable("region")
	if err != nil {
		t.Fatal(err)
	}
	join := &logical.Expr{Op: logical.OpJoin, Children: []*logical.Expr{n, r},
		On: &scalar.Cmp{Op: scalar.CmpEQ, L: &scalar.ColRef{ID: n.Cols[2]}, R: &scalar.ColRef{ID: r.Cols[0]}}}
	sel := &logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{join},
		Filter: &scalar.Cmp{Op: scalar.CmpGT, L: &scalar.ColRef{ID: n.Cols[0]}, R: &scalar.Const{}}}
	m := memo.New(md)
	root := m.Insert(sel)
	m.SetRoot(root)
	return m, m.Group(root).Exprs[0], md
}

func TestBindMatchesShape(t *testing.T) {
	m, sel, _ := buildMemo(t)
	binds := Bind(m, sel, P(logical.OpSelect, P(logical.OpJoin, Any(), Any())))
	if len(binds) != 1 {
		t.Fatalf("expected 1 binding, got %d", len(binds))
	}
	b := binds[0]
	if b.Node.Op != logical.OpSelect || b.Kids[0].Node.Op != logical.OpJoin {
		t.Error("binding structure wrong")
	}
	if !b.Kids[0].Kids[0].IsLeaf() || !b.Kids[0].Kids[1].IsLeaf() {
		t.Error("generic children should bind as leaves")
	}
}

func TestBindRejectsWrongShape(t *testing.T) {
	m, sel, _ := buildMemo(t)
	if binds := Bind(m, sel, P(logical.OpSelect, P(logical.OpGroupBy, Any()))); len(binds) != 0 {
		t.Error("Select(GroupBy) should not bind Select(Join)")
	}
	if binds := Bind(m, sel, P(logical.OpJoin, Any(), Any())); len(binds) != 0 {
		t.Error("Join pattern should not bind a Select root")
	}
}

func TestBindEnumeratesAlternatives(t *testing.T) {
	m, sel, _ := buildMemo(t)
	// Add a second Join expression (commuted) to the join group.
	joinGroup := sel.Kids[0]
	je := m.Group(joinGroup).Exprs[0]
	sub := memo.NewBound(je.Node, memo.GroupRef(je.Kids[1]), memo.GroupRef(je.Kids[0]))
	if !m.InsertSubstituteFrom(sub, joinGroup, 0) {
		t.Fatal("substitute not added")
	}
	binds := Bind(m, sel, P(logical.OpSelect, P(logical.OpJoin, Any(), Any())))
	if len(binds) != 2 {
		t.Fatalf("expected 2 bindings after commute, got %d", len(binds))
	}
}

func TestMatchesTreeAndContainedIn(t *testing.T) {
	md := logical.NewMetadata(catalog.LoadTPCH(catalog.DefaultTPCHConfig()))
	n, _ := md.AddTable("nation")
	sel := &logical.Expr{Op: logical.OpSelect, Children: []*logical.Expr{n}, Filter: scalar.TrueExpr()}
	p := P(logical.OpSelect, Any())
	if !p.MatchesTree(sel) {
		t.Error("Select(*) should match Select(Get)")
	}
	if p.MatchesTree(n) {
		t.Error("Select(*) should not match a Get")
	}
	deep := &logical.Expr{Op: logical.OpLimit, Children: []*logical.Expr{sel}, N: 1}
	if !p.ContainedIn(deep) {
		t.Error("pattern should be found below the root")
	}
}

func TestExplorationRulesSoundPreconditions(t *testing.T) {
	// Rule 14 (PushGroupByBelowJoin) must refuse when the grouping columns
	// do not contain the join columns.
	m, sel, md := buildMemo(t)
	_ = sel
	reg := DefaultRegistry()
	r14, _ := reg.ByID(14)
	// Build GroupBy over the join where group cols exclude the join col.
	joinGroup := m.Group(m.Root).Exprs[0].Kids[0]
	je := m.Group(joinGroup).Exprs[0]
	nName := scalar.ColumnID(2) // n_name from the first AddTable (ids 1..3)
	agg := md.AddColumn(logical.ColumnMeta{Name: "agg"})
	gbNode := &logical.Expr{Op: logical.OpGroupBy,
		GroupCols: []scalar.ColumnID{nName},
		Aggs:      []scalar.Agg{{Op: scalar.AggCountStar, Out: agg}}}
	gb := memo.NewBound(gbNode, memo.NewBound(je.Node, memo.GroupRef(je.Kids[0]), memo.GroupRef(je.Kids[1])))
	// Manually apply: build a fake MExpr via inserting the tree.
	tree := gbNode.Clone()
	tree.Children = []*logical.Expr{m.ExtractFirst(joinGroup)}
	root := m.Insert(tree)
	e := m.Group(root).Exprs[0]
	ctx := &Context{Memo: m}
	binds := Bind(m, e, r14.Pattern())
	if len(binds) == 0 {
		t.Fatal("pattern should bind")
	}
	subs := r14.(ExplorationRule).Apply(ctx, binds[0])
	if len(subs) != 0 {
		t.Error("rule 14 must not fire when join columns are not grouped")
	}
	_ = gb
}

func TestBindLimitCapsBindings(t *testing.T) {
	// A group stuffed with many alternatives must not explode the binding
	// cartesian product: Bind caps at maxBindings.
	m, sel, _ := buildMemo(t)
	joinGroup := sel.Kids[0]
	je := m.Group(joinGroup).Exprs[0]
	// Add many commuted/recommuted variants via artificial filters.
	for i := 0; i < 40; i++ {
		n := je.Node.Clone()
		n.On = &scalar.And{Kids: []scalar.Expr{
			je.Node.On,
			&scalar.Cmp{Op: scalar.CmpGE, L: &scalar.ColRef{ID: 1}, R: &scalar.Const{D: datum.NewInt(int64(i))}},
		}}
		m.InsertSubstituteFrom(memo.NewBound(n, memo.GroupRef(je.Kids[0]), memo.GroupRef(je.Kids[1])), joinGroup, 0)
	}
	binds := Bind(m, sel, P(logical.OpSelect, P(logical.OpJoin, Any(), Any())))
	if len(binds) == 0 || len(binds) > maxBindings {
		t.Fatalf("bindings = %d, want 1..%d", len(binds), maxBindings)
	}
}

func TestPatternMatchesTreeArityMismatch(t *testing.T) {
	md := logical.NewMetadata(catalog.LoadTPCH(catalog.DefaultTPCHConfig()))
	n, _ := md.AddTable("nation")
	// Pattern with more children than the tree node has.
	p := P(logical.OpGet, Any())
	if p.MatchesTree(n) {
		t.Error("pattern with extra children must not match a leaf")
	}
}

func TestKindString(t *testing.T) {
	if KindExploration.String() != "exploration" || KindImplementation.String() != "implementation" {
		t.Error("Kind.String wrong")
	}
}

func TestSetOperations(t *testing.T) {
	a := NewSet(1, 2)
	b := NewSet(2, 3)
	u := a.Union(b)
	if len(u) != 3 || !u.Contains(3) {
		t.Error("Union wrong")
	}
	var nilSet Set
	if nilSet.Contains(1) {
		t.Error("nil set contains nothing")
	}
	s := NewSet(5, 1, 3).Sorted()
	if s[0] != 1 || s[2] != 5 {
		t.Errorf("Sorted = %v", s)
	}
}
