package catalog

import (
	"slices"
	"testing"

	"qtrtest/internal/datum"
)

func TestLoadTPCHSchema(t *testing.T) {
	c := LoadTPCH(DefaultTPCHConfig())
	want := []string{"customer", "lineitem", "nation", "orders", "part", "partsupp", "region", "supplier"}
	got := c.TableNames()
	if len(got) != len(want) {
		t.Fatalf("tables: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("table %d: %s, want %s", i, got[i], want[i])
		}
	}
	if c.NumTables() != 8 {
		t.Errorf("NumTables = %d", c.NumTables())
	}
}

func TestTPCHDeterministic(t *testing.T) {
	a := LoadTPCH(DefaultTPCHConfig())
	b := LoadTPCH(DefaultTPCHConfig())
	for _, name := range a.TableNames() {
		ta, tb := a.MustTable(name), b.MustTable(name)
		if len(ta.Rows) != len(tb.Rows) {
			t.Fatalf("%s: row counts differ", name)
		}
		for i := range ta.Rows {
			if !slices.Equal(ta.Rows[i], tb.Rows[i]) {
				t.Fatalf("%s row %d differs between identically-seeded loads", name, i)
			}
		}
	}
	c := LoadTPCH(TPCHConfig{ScaleRows: 1.0, Seed: 7})
	if slices.Equal(c.MustTable("supplier").Rows[0], a.MustTable("supplier").Rows[0]) &&
		slices.Equal(c.MustTable("customer").Rows[0], a.MustTable("customer").Rows[0]) {
		t.Error("different seeds should change generated data")
	}
}

func TestTPCHForeignKeyIntegrity(t *testing.T) {
	c := LoadTPCH(DefaultTPCHConfig())
	for _, name := range c.TableNames() {
		tbl := c.MustTable(name)
		for _, fk := range tbl.ForeignKeys {
			ref := c.MustTable(fk.RefTable)
			refIdx := make([]int, len(fk.RefColumns))
			for i, rc := range fk.RefColumns {
				refIdx[i] = ref.ColumnIndex(rc)
			}
			valid := make(map[string]bool, len(ref.Rows))
			for _, rr := range ref.Rows {
				key := ""
				for _, ri := range refIdx {
					key += rr[ri].String() + "|"
				}
				valid[key] = true
			}
			colIdx := make([]int, len(fk.Columns))
			for i, fc := range fk.Columns {
				colIdx[i] = tbl.ColumnIndex(fc)
				if colIdx[i] < 0 {
					t.Fatalf("%s: fk column %s missing", name, fc)
				}
			}
			for rn, row := range tbl.Rows {
				key := ""
				for _, ci := range colIdx {
					key += row[ci].String() + "|"
				}
				if !valid[key] {
					t.Fatalf("%s row %d: dangling FK %v -> %s", name, rn, fk.Columns, fk.RefTable)
				}
			}
		}
	}
}

func TestTPCHPrimaryKeysUnique(t *testing.T) {
	c := LoadTPCH(DefaultTPCHConfig())
	for _, name := range c.TableNames() {
		tbl := c.MustTable(name)
		if len(tbl.PrimaryKey) == 0 {
			t.Errorf("%s has no primary key", name)
			continue
		}
		idx := make([]int, len(tbl.PrimaryKey))
		for i, pk := range tbl.PrimaryKey {
			idx[i] = tbl.ColumnIndex(pk)
		}
		seen := make(map[string]bool, len(tbl.Rows))
		for _, row := range tbl.Rows {
			key := ""
			for _, i := range idx {
				key += row[i].String() + "|"
			}
			if seen[key] {
				t.Fatalf("%s: duplicate primary key %s", name, key)
			}
			seen[key] = true
		}
	}
}

func TestStats(t *testing.T) {
	c := LoadTPCH(DefaultTPCHConfig())
	n := c.MustTable("nation")
	if n.Stats.RowCount != 25 {
		t.Errorf("nation rows = %d", n.Stats.RowCount)
	}
	if d := n.Stats.DistinctCount["n_nationkey"]; d != 25 {
		t.Errorf("distinct n_nationkey = %d", d)
	}
	if d := n.Stats.DistinctCount["n_regionkey"]; d != 5 {
		t.Errorf("distinct n_regionkey = %d", d)
	}
}

func TestScaling(t *testing.T) {
	small := LoadTPCH(TPCHConfig{ScaleRows: 0.5, Seed: 42})
	big := LoadTPCH(TPCHConfig{ScaleRows: 2.0, Seed: 42})
	if len(small.MustTable("orders").Rows) >= len(big.MustTable("orders").Rows) {
		t.Error("scaling has no effect on orders")
	}
	// region and nation are fixed-size dimension tables.
	if len(small.MustTable("region").Rows) != len(big.MustTable("region").Rows) {
		t.Error("region should not scale")
	}
}

func TestTableHelpers(t *testing.T) {
	c := LoadTPCH(DefaultTPCHConfig())
	tbl := c.MustTable("orders")
	if tbl.ColumnIndex("o_orderkey") != 0 || tbl.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex wrong")
	}
	if _, err := c.Table("missing"); err == nil {
		t.Error("missing table should error")
	}
}

func TestCatalogAddReplace(t *testing.T) {
	c := New()
	c.Add(&Table{Name: "t", Columns: []Column{{Name: "a", Type: datum.TypeInt}}})
	c.Add(&Table{Name: "t", Columns: []Column{{Name: "b", Type: datum.TypeInt}}})
	tbl := c.MustTable("t")
	if tbl.Columns[0].Name != "b" {
		t.Error("Add should replace an existing table")
	}
}
