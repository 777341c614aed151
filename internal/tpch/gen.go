// Package tpch is a deterministic, in-process TPC-H data generator and a
// set of hand-coded physical plans for a representative query subset
// (Q1, Q3, Q4, Q5, Q6, Q12, Q14, Q19), used by the Table 1/2/4, Figure 10,
// Figure 11 and Figure 13 reproductions.
//
// The generator follows dbgen's distributions for every column the queries
// and the compression study touch: dates, quantities, prices (scaled-cent
// decimals, as HyPer stores them), discounts/taxes in hundredths, the small
// categorical domains (ship modes, priorities, brands, types), and
// low-entropy comment text. Rows are emitted in primary-key order, matching
// the paper's "insertion order of the generated CSV files" (§3.2), which
// makes the non-key attributes uniformly distributed across blocks — the
// reason SMAs skip nothing on default TPC-H.
package tpch

import (
	"fmt"
	"time"

	"datablocks/internal/core"
	"datablocks/internal/storage"
	"datablocks/internal/types"
	"datablocks/internal/xrand"
)

// DB holds the generated TPC-H relations.
type DB struct {
	SF       float64
	Lineitem *storage.Relation
	Orders   *storage.Relation
	Customer *storage.Relation
	Part     *storage.Relation
	Supplier *storage.Relation
	Nation   *storage.Relation
	Region   *storage.Relation
}

// Relations returns all base relations with their names.
func (db *DB) Relations() map[string]*storage.Relation {
	return map[string]*storage.Relation{
		"lineitem": db.Lineitem,
		"orders":   db.Orders,
		"customer": db.Customer,
		"part":     db.Part,
		"supplier": db.Supplier,
		"nation":   db.Nation,
		"region":   db.Region,
	}
}

var (
	shipModes     = []string{"AIR", "AIR REG", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	shipInstructs = []string{"COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"}
	orderPrios    = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	mktSegments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	typeSyllable1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyllable2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyllable3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	containerSyl1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containerSyl2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	commentWords  = []string{"carefully", "quickly", "furiously", "deposits", "requests", "packages", "ideas", "foxes", "pending", "final", "express", "regular", "bold", "silent", "theodolites", "accounts", "platelets", "instructions", "sleep", "haggle", "nag", "among", "across", "above"}
	nationNames   = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	nationRegions = []int64{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}
	regionNames   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	partNameWords = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew", "hot", "hotpink", "indian", "ivory"}
)

var (
	startDate = types.DateToDays(1992, time.January, 1)
	endDate   = types.DateToDays(1998, time.August, 2)
	// currentDate splits return flags and line statuses in dbgen.
	cutoffDate = types.DateToDays(1995, time.June, 17)
)

func comment(r *xrand.Rand, words int) string {
	s := ""
	for i := 0; i < words; i++ {
		if i > 0 {
			s += " "
		}
		s += r.Pick(commentWords)
	}
	return s
}

// Sizes returns the row counts for a scale factor.
func Sizes(sf float64) (orders, lineAvg, customers, parts, suppliers int) {
	orders = int(sf * 1_500_000)
	if orders < 10 {
		orders = 10
	}
	customers = int(sf * 150_000)
	if customers < 5 {
		customers = 5
	}
	parts = int(sf * 200_000)
	if parts < 10 {
		parts = 10
	}
	suppliers = int(sf * 10_000)
	if suppliers < 3 {
		suppliers = 3
	}
	return orders, 4, customers, parts, suppliers
}

// Generate builds the database at the given scale factor. chunkRows bounds
// rows per storage chunk (0 = the 2^16 Data Block default).
func Generate(sf float64, chunkRows int) (*DB, error) {
	db := &DB{SF: sf}
	numOrders, _, numCust, numParts, numSupp := Sizes(sf)
	r := xrand.New(0xDB1C5)

	if err := db.genRegionNation(); err != nil {
		return nil, err
	}
	if err := db.genSupplier(r, numSupp, chunkRows); err != nil {
		return nil, err
	}
	if err := db.genCustomer(r, numCust, chunkRows); err != nil {
		return nil, err
	}
	if err := db.genPart(r, numParts, chunkRows); err != nil {
		return nil, err
	}
	if err := db.genOrdersAndLineitem(r, numOrders, numCust, numParts, numSupp, chunkRows); err != nil {
		return nil, err
	}
	return db, nil
}

func col(name string, k types.Kind) types.Column { return types.Column{Name: name, Kind: k} }

func (db *DB) genRegionNation() error {
	db.Region = storage.NewRelation(types.NewSchema(
		col("r_regionkey", types.Int64), col("r_name", types.String), col("r_comment", types.String),
	), 0)
	for i, name := range regionNames {
		if _, err := db.Region.Insert(types.Row{
			types.IntValue(int64(i)), types.StringValue(name), types.StringValue("region " + name),
		}); err != nil {
			return err
		}
	}
	db.Nation = storage.NewRelation(types.NewSchema(
		col("n_nationkey", types.Int64), col("n_name", types.String),
		col("n_regionkey", types.Int64), col("n_comment", types.String),
	), 0)
	for i, name := range nationNames {
		if _, err := db.Nation.Insert(types.Row{
			types.IntValue(int64(i)), types.StringValue(name),
			types.IntValue(nationRegions[i]), types.StringValue("nation " + name),
		}); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) genSupplier(r *xrand.Rand, n, chunkRows int) error {
	db.Supplier = storage.NewRelation(types.NewSchema(
		col("s_suppkey", types.Int64), col("s_name", types.String), col("s_address", types.String),
		col("s_nationkey", types.Int64), col("s_phone", types.String),
		col("s_acctbal", types.Int64), col("s_comment", types.String),
	), chunkRows)
	cols := core.MakeColumns(db.Supplier.Schema(), n)
	for i := 0; i < n; i++ {
		key := int64(i + 1)
		cols[0].Ints[i] = key
		cols[1].Strs[i] = fmt.Sprintf("Supplier#%09d", key)
		cols[2].Strs[i] = comment(r, 2)
		cols[3].Ints[i] = int64(r.Intn(25))
		cols[4].Strs[i] = phone(r, cols[3].Ints[i])
		cols[5].Ints[i] = r.Range(-99999, 999999) // cents
		cols[6].Strs[i] = comment(r, 5)
	}
	return db.Supplier.BulkAppend(cols, n)
}

func (db *DB) genCustomer(r *xrand.Rand, n, chunkRows int) error {
	db.Customer = storage.NewRelation(types.NewSchema(
		col("c_custkey", types.Int64), col("c_name", types.String), col("c_address", types.String),
		col("c_nationkey", types.Int64), col("c_phone", types.String),
		col("c_acctbal", types.Int64), col("c_mktsegment", types.String), col("c_comment", types.String),
	), chunkRows)
	cols := core.MakeColumns(db.Customer.Schema(), n)
	for i := 0; i < n; i++ {
		key := int64(i + 1)
		cols[0].Ints[i] = key
		cols[1].Strs[i] = fmt.Sprintf("Customer#%09d", key)
		cols[2].Strs[i] = comment(r, 2)
		cols[3].Ints[i] = int64(r.Intn(25))
		cols[4].Strs[i] = phone(r, cols[3].Ints[i])
		cols[5].Ints[i] = r.Range(-99999, 999999)
		cols[6].Strs[i] = r.Pick(mktSegments)
		cols[7].Strs[i] = comment(r, 6)
	}
	return db.Customer.BulkAppend(cols, n)
}

func (db *DB) genPart(r *xrand.Rand, n, chunkRows int) error {
	db.Part = storage.NewRelation(types.NewSchema(
		col("p_partkey", types.Int64), col("p_name", types.String), col("p_mfgr", types.String),
		col("p_brand", types.String), col("p_type", types.String), col("p_size", types.Int64),
		col("p_container", types.String), col("p_retailprice", types.Int64), col("p_comment", types.String),
	), chunkRows)
	cols := core.MakeColumns(db.Part.Schema(), n)
	for i := 0; i < n; i++ {
		key := int64(i + 1)
		m, nn := r.Intn(5)+1, r.Intn(5)+1
		cols[0].Ints[i] = key
		cols[1].Strs[i] = r.Pick(partNameWords) + " " + r.Pick(partNameWords) + " " + r.Pick(partNameWords)
		cols[2].Strs[i] = fmt.Sprintf("Manufacturer#%d", m)
		cols[3].Strs[i] = fmt.Sprintf("Brand#%d%d", m, nn)
		cols[4].Strs[i] = r.Pick(typeSyllable1) + " " + r.Pick(typeSyllable2) + " " + r.Pick(typeSyllable3)
		cols[5].Ints[i] = int64(r.Intn(50) + 1)
		cols[6].Strs[i] = r.Pick(containerSyl1) + " " + r.Pick(containerSyl2)
		cols[7].Ints[i] = retailPrice(key)
		cols[8].Strs[i] = comment(r, 3)
	}
	return db.Part.BulkAppend(cols, n)
}

// retailPrice follows dbgen's formula, in cents.
func retailPrice(partkey int64) int64 {
	return 90000 + (partkey/10)%20001 + 100*(partkey%1000)
}

func phone(r *xrand.Rand, nationkey int64) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d", 10+nationkey, r.Intn(900)+100, r.Intn(900)+100, r.Intn(9000)+1000)
}

func (db *DB) genOrdersAndLineitem(r *xrand.Rand, numOrders, numCust, numParts, numSupp, chunkRows int) error {
	db.Orders = storage.NewRelation(types.NewSchema(
		col("o_orderkey", types.Int64), col("o_custkey", types.Int64), col("o_orderstatus", types.String),
		col("o_totalprice", types.Int64), col("o_orderdate", types.Int64), col("o_orderpriority", types.String),
		col("o_clerk", types.String), col("o_shippriority", types.Int64), col("o_comment", types.String),
	), chunkRows)
	db.Lineitem = storage.NewRelation(types.NewSchema(
		col("l_orderkey", types.Int64), col("l_partkey", types.Int64), col("l_suppkey", types.Int64),
		col("l_linenumber", types.Int64), col("l_quantity", types.Int64), col("l_extendedprice", types.Int64),
		col("l_discount", types.Int64), col("l_tax", types.Int64), col("l_returnflag", types.String),
		col("l_linestatus", types.String), col("l_shipdate", types.Int64), col("l_commitdate", types.Int64),
		col("l_receiptdate", types.Int64), col("l_shipinstruct", types.String), col("l_shipmode", types.String),
		col("l_comment", types.String),
	), chunkRows)

	oCols := core.MakeColumns(db.Orders.Schema(), numOrders)
	const batch = 1 << 15
	lCols := core.MakeColumns(db.Lineitem.Schema(), batch)
	lCount := 0
	flush := func() error {
		if lCount == 0 {
			return nil
		}
		err := db.Lineitem.BulkAppend(lCols, lCount)
		lCount = 0
		return err
	}
	for oi := 0; oi < numOrders; oi++ {
		okey := int64(oi + 1)
		odate := r.Range(startDate, endDate-151)
		nLines := r.Intn(7) + 1
		total := int64(0)
		anyOpen, allFinished := false, true
		for ln := 0; ln < nLines; ln++ {
			if lCount == batch {
				if err := flush(); err != nil {
					return err
				}
			}
			i := lCount
			qty := r.Range(1, 50)
			pkey := r.Range(1, int64(numParts))
			price := qty * retailPrice(pkey) / 100
			ship := odate + r.Range(1, 121)
			commit := odate + r.Range(30, 90)
			receipt := ship + r.Range(1, 30)
			lCols[0].Ints[i] = okey
			lCols[1].Ints[i] = pkey
			lCols[2].Ints[i] = r.Range(1, int64(numSupp))
			lCols[3].Ints[i] = int64(ln + 1)
			lCols[4].Ints[i] = qty
			lCols[5].Ints[i] = price
			lCols[6].Ints[i] = r.Range(0, 10) // hundredths
			lCols[7].Ints[i] = r.Range(0, 8)
			if receipt <= cutoffDate {
				if r.Intn(2) == 0 {
					lCols[8].Strs[i] = "R"
				} else {
					lCols[8].Strs[i] = "A"
				}
			} else {
				lCols[8].Strs[i] = "N"
			}
			if ship > cutoffDate {
				lCols[9].Strs[i] = "O"
				anyOpen = true
				allFinished = false
			} else {
				lCols[9].Strs[i] = "F"
			}
			lCols[10].Ints[i] = ship
			lCols[11].Ints[i] = commit
			lCols[12].Ints[i] = receipt
			lCols[13].Strs[i] = r.Pick(shipInstructs)
			lCols[14].Strs[i] = r.Pick(shipModes)
			lCols[15].Strs[i] = comment(r, 4)
			total += price
			lCount++
		}
		oCols[0].Ints[oi] = okey
		oCols[1].Ints[oi] = r.Range(1, int64(numCust))
		switch {
		case allFinished:
			oCols[2].Strs[oi] = "F"
		case anyOpen:
			oCols[2].Strs[oi] = "O"
		default:
			oCols[2].Strs[oi] = "P"
		}
		oCols[3].Ints[oi] = total
		oCols[4].Ints[oi] = odate
		oCols[5].Strs[oi] = r.Pick(orderPrios)
		oCols[6].Strs[oi] = fmt.Sprintf("Clerk#%09d", r.Intn(1000)+1)
		oCols[7].Ints[oi] = 0
		oCols[8].Strs[oi] = comment(r, 5)
	}
	if err := flush(); err != nil {
		return err
	}
	return db.Orders.BulkAppend(oCols, numOrders)
}

// FreezeAll freezes every relation completely (no hot tail), optionally
// sorting lineitem blocks by l_shipdate (the Figure 11 configuration).
func (db *DB) FreezeAll(sortLineitemByShipdate bool) error {
	for name, rel := range db.Relations() {
		opts := core.FreezeOptions{SortBy: -1}
		if name == "lineitem" && sortLineitemByShipdate {
			opts.SortBy = rel.Schema().MustColumn("l_shipdate")
		}
		if err := rel.FreezeAll(opts, false); err != nil {
			return fmt.Errorf("freeze %s: %w", name, err)
		}
	}
	return nil
}
