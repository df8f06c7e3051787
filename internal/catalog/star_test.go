package catalog

import (
	"slices"
	"testing"
)

func TestLoadStarSchema(t *testing.T) {
	c := LoadStar(DefaultStarConfig())
	want := []string{"date_dim", "product", "sales", "shopper", "store"}
	got := c.TableNames()
	if len(got) != len(want) {
		t.Fatalf("tables: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("table %d = %s, want %s", i, got[i], want[i])
		}
	}
	sales := c.MustTable("sales")
	if len(sales.ForeignKeys) != 4 {
		t.Errorf("sales FKs = %d, want 4", len(sales.ForeignKeys))
	}
	if len(sales.Rows) == 0 {
		t.Fatal("no fact rows")
	}
}

func TestStarForeignKeyIntegrity(t *testing.T) {
	c := LoadStar(DefaultStarConfig())
	sales := c.MustTable("sales")
	for _, fk := range sales.ForeignKeys {
		ref := c.MustTable(fk.RefTable)
		refIdx := ref.ColumnIndex(fk.RefColumns[0])
		valid := make(map[string]bool, len(ref.Rows))
		for _, rr := range ref.Rows {
			valid[rr[refIdx].String()] = true
		}
		ci := sales.ColumnIndex(fk.Columns[0])
		for rn, row := range sales.Rows {
			if !valid[row[ci].String()] {
				t.Fatalf("sales row %d: dangling FK %s -> %s", rn, fk.Columns[0], fk.RefTable)
			}
		}
	}
}

func TestStarDeterministic(t *testing.T) {
	a := LoadStar(DefaultStarConfig())
	b := LoadStar(DefaultStarConfig())
	for _, name := range a.TableNames() {
		ra, rb := a.MustTable(name).Rows, b.MustTable(name).Rows
		if len(ra) != len(rb) {
			t.Fatalf("%s row counts differ", name)
		}
		for i := range ra {
			if !slices.Equal(ra[i], rb[i]) {
				t.Fatalf("%s row %d differs", name, i)
			}
		}
	}
}
