package catalog

import (
	"fmt"
	"math/rand"

	"qtrtest/internal/datum"
)

// StarConfig sizes the star-schema test database. The paper notes the
// framework was evaluated "on other databases with different schemas and
// sizes" with similar results (§6.1); this schema is the second instance:
// a retail star with one fact table and four dimensions, the shape that
// star-join rules and FK-driven preconditions care about.
type StarConfig struct {
	ScaleRows float64
	Seed      int64
}

// DefaultStarConfig returns the configuration used by tests.
func DefaultStarConfig() StarConfig {
	return StarConfig{ScaleRows: 1.0, Seed: 42}
}

var starCategories = []string{"GROCERY", "ELECTRONICS", "CLOTHING", "GARDEN", "TOYS", "SPORTS"}

var starChannels = []string{"WEB", "STORE", "PHONE", "CATALOG"}

var starTiers = []string{"BRONZE", "SILVER", "GOLD", "PLATINUM"}

// LoadStar builds the star schema:
//
//	date_dim(d_datekey, d_year, d_month, d_quarter)
//	product(p_productkey, p_name, p_category, p_price)
//	store(s_storekey, s_name, s_channel)
//	shopper(h_shopperkey, h_name, h_tier, h_balance)
//	sales(f_salekey, f_datekey, f_productkey, f_storekey, f_shopperkey,
//	      f_quantity, f_amount, f_discount)
func LoadStar(cfg StarConfig) *Catalog {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := New()
	c.scale = cfg.ScaleRows

	nDates := scaled(120, cfg.ScaleRows)
	nProducts := scaled(80, cfg.ScaleRows)
	nStores := scaled(20, cfg.ScaleRows)
	nShoppers := scaled(100, cfg.ScaleRows)
	nSales := scaled(900, cfg.ScaleRows)

	dateDim := &Table{
		Name: "date_dim",
		Columns: []Column{
			{Name: "d_datekey", Type: datum.TypeInt},
			{Name: "d_year", Type: datum.TypeInt},
			{Name: "d_month", Type: datum.TypeInt},
			{Name: "d_quarter", Type: datum.TypeInt},
		},
		PrimaryKey: []string{"d_datekey"},
	}
	for i := 0; i < nDates; i++ {
		month := i % 12
		dateDim.Rows = append(dateDim.Rows, datum.Row{
			datum.NewInt(int64(i)),
			datum.NewInt(int64(2020 + i/12%6)),
			datum.NewInt(int64(month + 1)),
			datum.NewInt(int64(month/3 + 1)),
		})
	}
	c.Add(dateDim)

	product := &Table{
		Name: "product",
		Columns: []Column{
			{Name: "p_productkey", Type: datum.TypeInt},
			{Name: "p_name", Type: datum.TypeString},
			{Name: "p_category", Type: datum.TypeString},
			{Name: "p_price", Type: datum.TypeFloat},
		},
		PrimaryKey: []string{"p_productkey"},
	}
	for i := 0; i < nProducts; i++ {
		product.Rows = append(product.Rows, datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("product-%03d", i)),
			datum.NewString(starCategories[rng.Intn(len(starCategories))]),
			datum.NewFloat(1 + float64(rng.Intn(50000))/100),
		})
	}
	c.Add(product)

	store := &Table{
		Name: "store",
		Columns: []Column{
			{Name: "s_storekey", Type: datum.TypeInt},
			{Name: "s_name", Type: datum.TypeString},
			{Name: "s_channel", Type: datum.TypeString},
		},
		PrimaryKey: []string{"s_storekey"},
	}
	for i := 0; i < nStores; i++ {
		store.Rows = append(store.Rows, datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("store-%02d", i)),
			datum.NewString(starChannels[rng.Intn(len(starChannels))]),
		})
	}
	c.Add(store)

	shopper := &Table{
		Name: "shopper",
		Columns: []Column{
			{Name: "h_shopperkey", Type: datum.TypeInt},
			{Name: "h_name", Type: datum.TypeString},
			{Name: "h_tier", Type: datum.TypeString},
			{Name: "h_balance", Type: datum.TypeFloat},
		},
		PrimaryKey: []string{"h_shopperkey"},
	}
	for i := 0; i < nShoppers; i++ {
		shopper.Rows = append(shopper.Rows, datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("shopper-%04d", i)),
			datum.NewString(starTiers[rng.Intn(len(starTiers))]),
			datum.NewFloat(float64(rng.Intn(200000))/100 - 500),
		})
	}
	c.Add(shopper)

	sales := &Table{
		Name: "sales",
		Columns: []Column{
			{Name: "f_salekey", Type: datum.TypeInt},
			{Name: "f_datekey", Type: datum.TypeInt},
			{Name: "f_productkey", Type: datum.TypeInt},
			{Name: "f_storekey", Type: datum.TypeInt},
			{Name: "f_shopperkey", Type: datum.TypeInt},
			{Name: "f_quantity", Type: datum.TypeInt},
			{Name: "f_amount", Type: datum.TypeFloat},
			{Name: "f_discount", Type: datum.TypeFloat},
		},
		PrimaryKey: []string{"f_salekey"},
		ForeignKeys: []ForeignKey{
			{Columns: []string{"f_datekey"}, RefTable: "date_dim", RefColumns: []string{"d_datekey"}},
			{Columns: []string{"f_productkey"}, RefTable: "product", RefColumns: []string{"p_productkey"}},
			{Columns: []string{"f_storekey"}, RefTable: "store", RefColumns: []string{"s_storekey"}},
			{Columns: []string{"f_shopperkey"}, RefTable: "shopper", RefColumns: []string{"h_shopperkey"}},
		},
	}
	for i := 0; i < nSales; i++ {
		qty := 1 + rng.Intn(20)
		sales.Rows = append(sales.Rows, datum.Row{
			datum.NewInt(int64(i)),
			datum.NewInt(int64(rng.Intn(nDates))),
			datum.NewInt(int64(rng.Intn(nProducts))),
			datum.NewInt(int64(rng.Intn(nStores))),
			datum.NewInt(int64(rng.Intn(nShoppers))),
			datum.NewInt(int64(qty)),
			datum.NewFloat(float64(qty) * (1 + float64(rng.Intn(20000))/100)),
			datum.NewFloat(float64(rng.Intn(30)) / 100),
		})
	}
	c.Add(sales)

	for _, name := range c.TableNames() {
		c.MustTable(name).ComputeStats()
	}
	return c
}
