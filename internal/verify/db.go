package verify

import (
	"strings"
	"sync"

	"qtrtest/internal/catalog"
	"qtrtest/internal/datum"
)

// The verifier's universe is deliberately tiny: three interchangeable plain
// tables (two nullable INT columns each) and one keyed table whose first
// column is a primary key. The keyed table exists so that key-dependent rule
// preconditions (colsFormKey, groupHasRowKey — rules 14/15/16) can fire; the
// plain tables carry the duplicate rows and NULLs that separate sound rules
// from plausible-looking broken ones.
const keyedTable = "k"

var plainTables = []string{"s", "t", "u"}

// schemaCatalog builds the fixed verification schema with no rows. It is the
// template the instantiator allocates column metadata against; per-database
// catalogs come from enumerateDatabases, memoized per table tuple so the
// executor's per-table caches never leak contents across distinct databases
// while every sweep over the same tables shares one catalog per database.
func schemaCatalog() *catalog.Catalog {
	cat := catalog.New()
	for _, name := range plainTables {
		cat.Add(&catalog.Table{
			Name: name,
			Columns: []catalog.Column{
				{Name: "a", Type: datum.TypeInt, Nullable: true},
				{Name: "b", Type: datum.TypeInt, Nullable: true},
			},
		})
	}
	cat.Add(&catalog.Table{
		Name: keyedTable,
		Columns: []catalog.Column{
			{Name: "a", Type: datum.TypeInt, Nullable: false},
			{Name: "b", Type: datum.TypeInt, Nullable: true},
		},
		PrimaryKey: []string{"a"},
	})
	return cat
}

// tableContent is one candidate contents assignment for a single table.
type tableContent struct {
	label string
	rows  []datum.Row
}

func row(vals ...datum.Datum) datum.Row { return datum.Row(vals) }

func iv(v int64) datum.Datum { return datum.NewInt(v) }

// plainContents is the content vocabulary for a plain table, ordered by row
// count so the database enumeration can present smaller databases first:
// empty, a singleton, exact duplicates, two distinct rows, NULL-bearing
// rows, and a three-row table with a duplicated group key. Together they
// cover the classes that break unsound rules: cardinality (duplicates),
// three-valued logic (NULLs), and multi-group aggregation.
func plainContents() []tableContent {
	return []tableContent{
		{label: "{}", rows: nil},
		{label: "{(0,0)}", rows: []datum.Row{row(iv(0), iv(0))}},
		{label: "{(0,0),(0,0)}", rows: []datum.Row{row(iv(0), iv(0)), row(iv(0), iv(0))}},
		{label: "{(0,1),(1,0)}", rows: []datum.Row{row(iv(0), iv(1)), row(iv(1), iv(0))}},
		{label: "{(N,0),(1,N)}", rows: []datum.Row{row(datum.Null, iv(0)), row(iv(1), datum.Null)}},
		{label: "{(0,0),(0,1),(1,1)}", rows: []datum.Row{row(iv(0), iv(0)), row(iv(0), iv(1)), row(iv(1), iv(1))}},
	}
}

// keyedContents is the content vocabulary for the keyed table: the first
// column stays unique and non-NULL as the primary key demands.
func keyedContents() []tableContent {
	return []tableContent{
		{label: "{}", rows: nil},
		{label: "{(0,0)}", rows: []datum.Row{row(iv(0), iv(0))}},
		{label: "{(0,N),(1,0)}", rows: []datum.Row{row(iv(0), datum.Null), row(iv(1), iv(0))}},
		{label: "{(0,0),(1,1),(2,N)}", rows: []datum.Row{row(iv(0), iv(0)), row(iv(1), iv(1)), row(iv(2), datum.Null)}},
	}
}

// contentVocabulary returns the content options for the table at the given
// position of an instance's table list. Positions past the second get a
// trimmed vocabulary: three-table instantiations would otherwise multiply
// the database count sixfold for marginal extra coverage (the interesting
// contents — duplicates, NULLs — are already exercised via the first two
// positions by symmetry of the enumeration).
func contentVocabulary(table string, position int) []tableContent {
	if table == keyedTable {
		all := keyedContents()
		if position >= 2 {
			return []tableContent{all[0], all[2]}
		}
		return all
	}
	all := plainContents()
	if position >= 2 {
		return []tableContent{all[0], all[1], all[3]}
	}
	return all
}

// database assigns contents to each table an instance scans, in the order
// the instance's table list names them, and holds them materialized.
type database struct {
	tables   []string
	contents []tableContent
	total    int
	cat      *catalog.Catalog
}

// label renders the database for a witness, e.g. "s={(0,0)} t={}".
func (d database) label() string {
	var sb strings.Builder
	for i, t := range d.tables {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(t)
		sb.WriteByte('=')
		sb.WriteString(d.contents[i].label)
	}
	return sb.String()
}

// databaseLists holds enumerateDatabases' answer per table tuple. The tuple
// determines the list — order, contents and all — so every instantiation over
// the same tables sweeps the same database values, and with them the same
// catalogs: one set of executor per-table caches (column vectors, join
// indexes) and one result-cache identity per database, which is what turns
// the plan overlap between rules into cache hits. Distinct tuples and distinct
// contents never share a table object.
var databaseLists sync.Map // tables joined by a space -> []database

// enumerateDatabases returns the full cross product of content assignments
// for the given tables, each materialized as a catalog, ordered by total row
// count (stable within equal totals), so the first failing database a rule
// check encounters is also a smallest one — the witness-minimality guarantee.
// Concurrent rule checks may race to build the same tuple's list; LoadOrStore
// picks one winner, and either candidate is equivalent because the tuple
// determines every row.
func enumerateDatabases(tables []string) []database {
	key := strings.Join(tables, " ")
	if v, ok := databaseLists.Load(key); ok {
		return v.([]database)
	}
	tables = append([]string(nil), tables...)
	dbs := []database{{tables: tables}}
	for pos, t := range tables {
		vocab := contentVocabulary(t, pos)
		next := make([]database, 0, len(dbs)*len(vocab))
		for _, d := range dbs {
			for _, c := range vocab {
				nd := database{
					tables:   tables,
					contents: append(append([]tableContent(nil), d.contents...), c),
					total:    d.total + len(c.rows),
				}
				next = append(next, nd)
			}
		}
		dbs = next
	}
	// Insertion sort keeps the enumeration order stable within equal totals
	// without pulling in sort.SliceStable for a list this small.
	for i := 1; i < len(dbs); i++ {
		for j := i; j > 0 && dbs[j-1].total > dbs[j].total; j-- {
			dbs[j-1], dbs[j] = dbs[j], dbs[j-1]
		}
	}
	for i := range dbs {
		dbs[i].cat = buildCatalog(dbs[i])
	}
	v, _ := databaseLists.LoadOrStore(key, dbs)
	return v.([]database)
}

// buildCatalog materializes one database as a catalog of its own.
func buildCatalog(d database) *catalog.Catalog {
	cat := schemaCatalog()
	for i, name := range d.tables {
		t := cat.MustTable(name)
		t.Rows = append([]datum.Row(nil), d.contents[i].rows...)
	}
	return cat
}
