package catalog

import (
	"fmt"
	"math/rand"

	"qtrtest/internal/datum"
)

// TPCHConfig controls the size of the generated TPC-H instance. The paper
// uses TPC-H because its schema (keys, FKs, fact/dimension shape) drives rule
// preconditions; logical-rule exercising is largely independent of data size
// (§6.1), so the default instance is small enough for fast correctness runs.
type TPCHConfig struct {
	// ScaleRows scales the per-table base row counts below. 1.0 yields
	// roughly 2k rows total across all tables.
	ScaleRows float64
	// Seed feeds the deterministic generator.
	Seed int64
}

// DefaultTPCHConfig returns the configuration used by tests and benchmarks.
func DefaultTPCHConfig() TPCHConfig {
	return TPCHConfig{ScaleRows: 1.0, Seed: 42}
}

var tpchNations = []string{
	"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
	"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
	"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
	"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
}

var tpchRegions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var tpchSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

var tpchPriorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

var tpchShipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}

var tpchBrands = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#21", "Brand#22",
	"Brand#23", "Brand#31", "Brand#32", "Brand#33", "Brand#34"}

var tpchReturnFlags = []string{"R", "A", "N"}

var tpchStatus = []string{"O", "F", "P"}

func scaled(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 1 {
		n = 1
	}
	return n
}

// LoadTPCH builds the TPC-H schema, generates deterministic data at the given
// scale, computes statistics and returns the catalog.
func LoadTPCH(cfg TPCHConfig) *Catalog {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := New()
	c.scale = cfg.ScaleRows

	nRegion := len(tpchRegions)
	nNation := len(tpchNations)
	nSupplier := scaled(40, cfg.ScaleRows)
	nCustomer := scaled(120, cfg.ScaleRows)
	nPart := scaled(100, cfg.ScaleRows)
	nPartsupp := nPart * 3
	if nPartsupp > nPart*nSupplier {
		// The generation loop draws distinct (part, supplier) pairs; at tiny
		// scales the requested count can exceed the pair space, which would
		// loop forever.
		nPartsupp = nPart * nSupplier
	}
	nOrders := scaled(360, cfg.ScaleRows)
	nLineitem := nOrders * 3

	region := &Table{
		Name: "region",
		Columns: []Column{
			{Name: "r_regionkey", Type: datum.TypeInt},
			{Name: "r_name", Type: datum.TypeString},
		},
		PrimaryKey: []string{"r_regionkey"},
	}
	for i := 0; i < nRegion; i++ {
		region.Rows = append(region.Rows, datum.Row{datum.NewInt(int64(i)), datum.NewString(tpchRegions[i])})
	}
	c.Add(region)

	nation := &Table{
		Name: "nation",
		Columns: []Column{
			{Name: "n_nationkey", Type: datum.TypeInt},
			{Name: "n_name", Type: datum.TypeString},
			{Name: "n_regionkey", Type: datum.TypeInt},
		},
		PrimaryKey: []string{"n_nationkey"},
		ForeignKeys: []ForeignKey{
			{Columns: []string{"n_regionkey"}, RefTable: "region", RefColumns: []string{"r_regionkey"}},
		},
	}
	for i := 0; i < nNation; i++ {
		nation.Rows = append(nation.Rows, datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(tpchNations[i]),
			datum.NewInt(int64(i % nRegion)),
		})
	}
	c.Add(nation)

	supplier := &Table{
		Name: "supplier",
		Columns: []Column{
			{Name: "s_suppkey", Type: datum.TypeInt},
			{Name: "s_name", Type: datum.TypeString},
			{Name: "s_nationkey", Type: datum.TypeInt},
			{Name: "s_acctbal", Type: datum.TypeFloat},
		},
		PrimaryKey: []string{"s_suppkey"},
		ForeignKeys: []ForeignKey{
			{Columns: []string{"s_nationkey"}, RefTable: "nation", RefColumns: []string{"n_nationkey"}},
		},
	}
	for i := 0; i < nSupplier; i++ {
		supplier.Rows = append(supplier.Rows, datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("Supplier#%04d", i)),
			datum.NewInt(int64(rng.Intn(nNation))),
			datum.NewFloat(float64(rng.Intn(1000000))/100 - 1000),
		})
	}
	c.Add(supplier)

	customer := &Table{
		Name: "customer",
		Columns: []Column{
			{Name: "c_custkey", Type: datum.TypeInt},
			{Name: "c_name", Type: datum.TypeString},
			{Name: "c_nationkey", Type: datum.TypeInt},
			{Name: "c_acctbal", Type: datum.TypeFloat},
			{Name: "c_mktsegment", Type: datum.TypeString},
		},
		PrimaryKey: []string{"c_custkey"},
		ForeignKeys: []ForeignKey{
			{Columns: []string{"c_nationkey"}, RefTable: "nation", RefColumns: []string{"n_nationkey"}},
		},
	}
	for i := 0; i < nCustomer; i++ {
		customer.Rows = append(customer.Rows, datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("Customer#%05d", i)),
			datum.NewInt(int64(rng.Intn(nNation))),
			datum.NewFloat(float64(rng.Intn(1100000))/100 - 1000),
			datum.NewString(tpchSegments[rng.Intn(len(tpchSegments))]),
		})
	}
	c.Add(customer)

	part := &Table{
		Name: "part",
		Columns: []Column{
			{Name: "p_partkey", Type: datum.TypeInt},
			{Name: "p_name", Type: datum.TypeString},
			{Name: "p_brand", Type: datum.TypeString},
			{Name: "p_size", Type: datum.TypeInt},
			{Name: "p_retailprice", Type: datum.TypeFloat},
		},
		PrimaryKey: []string{"p_partkey"},
	}
	for i := 0; i < nPart; i++ {
		part.Rows = append(part.Rows, datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("part %05d", i)),
			datum.NewString(tpchBrands[rng.Intn(len(tpchBrands))]),
			datum.NewInt(int64(1 + rng.Intn(50))),
			datum.NewFloat(900 + float64(rng.Intn(120000))/100),
		})
	}
	c.Add(part)

	partsupp := &Table{
		Name: "partsupp",
		Columns: []Column{
			{Name: "ps_partkey", Type: datum.TypeInt},
			{Name: "ps_suppkey", Type: datum.TypeInt},
			{Name: "ps_availqty", Type: datum.TypeInt},
			{Name: "ps_supplycost", Type: datum.TypeFloat},
		},
		PrimaryKey: []string{"ps_partkey", "ps_suppkey"},
		ForeignKeys: []ForeignKey{
			{Columns: []string{"ps_partkey"}, RefTable: "part", RefColumns: []string{"p_partkey"}},
			{Columns: []string{"ps_suppkey"}, RefTable: "supplier", RefColumns: []string{"s_suppkey"}},
		},
	}
	seenPS := make(map[[2]int]bool)
	for len(partsupp.Rows) < nPartsupp {
		pk := rng.Intn(nPart)
		sk := rng.Intn(nSupplier)
		if seenPS[[2]int{pk, sk}] {
			continue
		}
		seenPS[[2]int{pk, sk}] = true
		partsupp.Rows = append(partsupp.Rows, datum.Row{
			datum.NewInt(int64(pk)),
			datum.NewInt(int64(sk)),
			datum.NewInt(int64(1 + rng.Intn(9999))),
			datum.NewFloat(1 + float64(rng.Intn(99900))/100),
		})
	}
	c.Add(partsupp)

	orders := &Table{
		Name: "orders",
		Columns: []Column{
			{Name: "o_orderkey", Type: datum.TypeInt},
			{Name: "o_custkey", Type: datum.TypeInt},
			{Name: "o_orderstatus", Type: datum.TypeString},
			{Name: "o_totalprice", Type: datum.TypeFloat},
			{Name: "o_orderdate", Type: datum.TypeDate},
			{Name: "o_orderpriority", Type: datum.TypeString},
		},
		PrimaryKey: []string{"o_orderkey"},
		ForeignKeys: []ForeignKey{
			{Columns: []string{"o_custkey"}, RefTable: "customer", RefColumns: []string{"c_custkey"}},
		},
	}
	for i := 0; i < nOrders; i++ {
		orders.Rows = append(orders.Rows, datum.Row{
			datum.NewInt(int64(i)),
			datum.NewInt(int64(rng.Intn(nCustomer))),
			datum.NewString(tpchStatus[rng.Intn(len(tpchStatus))]),
			datum.NewFloat(1000 + float64(rng.Intn(45000000))/100),
			datum.NewDate(int64(rng.Intn(2557))), // ~7 years of days
			datum.NewString(tpchPriorities[rng.Intn(len(tpchPriorities))]),
		})
	}
	c.Add(orders)

	lineitem := &Table{
		Name: "lineitem",
		Columns: []Column{
			{Name: "l_orderkey", Type: datum.TypeInt},
			{Name: "l_partkey", Type: datum.TypeInt},
			{Name: "l_suppkey", Type: datum.TypeInt},
			{Name: "l_linenumber", Type: datum.TypeInt},
			{Name: "l_quantity", Type: datum.TypeInt},
			{Name: "l_extendedprice", Type: datum.TypeFloat},
			{Name: "l_discount", Type: datum.TypeFloat},
			{Name: "l_returnflag", Type: datum.TypeString},
			{Name: "l_shipdate", Type: datum.TypeDate},
			{Name: "l_shipmode", Type: datum.TypeString},
		},
		PrimaryKey: []string{"l_orderkey", "l_linenumber"},
		ForeignKeys: []ForeignKey{
			{Columns: []string{"l_orderkey"}, RefTable: "orders", RefColumns: []string{"o_orderkey"}},
			{Columns: []string{"l_partkey"}, RefTable: "part", RefColumns: []string{"p_partkey"}},
			{Columns: []string{"l_suppkey"}, RefTable: "supplier", RefColumns: []string{"s_suppkey"}},
		},
	}
	line := 0
	prevOrder := -1
	for i := 0; i < nLineitem; i++ {
		ok := rng.Intn(nOrders)
		if ok == prevOrder {
			line++
		} else {
			line = 0
			prevOrder = ok
		}
		lineitem.Rows = append(lineitem.Rows, datum.Row{
			datum.NewInt(int64(ok)),
			datum.NewInt(int64(rng.Intn(nPart))),
			datum.NewInt(int64(rng.Intn(nSupplier))),
			datum.NewInt(int64(i)), // unique per row; simpler than TPC-H's per-order numbering
			datum.NewInt(int64(1 + rng.Intn(50))),
			datum.NewFloat(900 + float64(rng.Intn(9500000))/100),
			datum.NewFloat(float64(rng.Intn(11)) / 100),
			datum.NewString(tpchReturnFlags[rng.Intn(len(tpchReturnFlags))]),
			datum.NewDate(int64(rng.Intn(2557))),
			datum.NewString(tpchShipModes[rng.Intn(len(tpchShipModes))]),
		})
	}
	// l_linenumber alone is unique in this generator.
	lineitem.PrimaryKey = []string{"l_linenumber"}
	c.Add(lineitem)

	for _, name := range c.TableNames() {
		c.MustTable(name).ComputeStats()
	}
	return c
}
