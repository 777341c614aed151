package experiments

import (
	"testing"

	"datablocks"
)

func testTPCC(t *testing.T, chunkRows int) *tpccDB {
	t.Helper()
	db, err := newTPCC(tpccConfig{warehouses: 2, districts: 3, customers: 50, items: 200,
		linesLo: 3, linesHi: 8, chunkRows: chunkRows, seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func (db *tpccDB) stats() datablocks.MemStats {
	var total datablocks.MemStats
	for _, tb := range db.all {
		m := tb.Stats()
		total.HotBytes += m.HotBytes
		total.FrozenBytes += m.FrozenBytes
		total.HotChunks += m.HotChunks
		total.FrozenChunks += m.FrozenChunks
	}
	return total
}

// TestTPCCLoadAndNewOrder: the load counts, the rows a new-order stream
// adds, and the stock table after it — every stock row was rewritten
// through Table.Update, so each key still resolves and the live row count
// is still warehouses × items.
func TestTPCCLoadAndNewOrder(t *testing.T) {
	db := testTPCC(t, 256)
	if n := db.item.NumRows(); n != 200 {
		t.Fatalf("items = %d", n)
	}
	if n := db.stock.NumRows(); n != 400 {
		t.Fatalf("stock = %d", n)
	}
	if n := db.customer.NumRows(); n != 2*3*50 {
		t.Fatalf("customers = %d", n)
	}
	if err := db.newOrders(200, false); err != nil {
		t.Fatal(err)
	}
	if db.orders.NumRows() != 200 || db.newOrder.NumRows() != 200 {
		t.Fatalf("orders/new_order = %d/%d", db.orders.NumRows(), db.newOrder.NumRows())
	}
	if n := db.orderLine.NumRows(); n < 3*200 {
		t.Fatalf("order lines = %d", n)
	}
	if db.stock.Stats().DeletedRows == 0 {
		t.Fatal("the stream rewrote no stock row")
	}
	if n := db.stock.NumRows(); n != 400 {
		t.Fatalf("stock rows after updates = %d", n)
	}
	for w := int64(0); w < 2; w++ {
		for i := int64(1); i <= 200; i++ {
			if s, ok := db.stock.Lookup(db.stockKey(w, i)); !ok || s[1].Int() != w || s[2].Int() != i {
				t.Fatalf("stock (%d,%d) resolves to %v, %v", w, i, s, ok)
			}
		}
	}
}

func TestTPCCReadOnlyTransactions(t *testing.T) {
	db := testTPCC(t, 256)
	if err := db.newOrders(100, false); err != nil {
		t.Fatal(err)
	}
	gotTotal := false
	for i := 0; i < 100; i++ {
		total, err := db.orderStatusTx()
		if err != nil {
			t.Fatalf("order-status %d: %v", i, err)
		}
		gotTotal = gotTotal || total > 0
		db.stockLevelTx()
	}
	if !gotTotal {
		t.Fatal("order-status never found an order")
	}
}

// TestTPCCColdFreezeKeepsWorkloadRunning: Table.Freeze on new_order, the
// paper's first configuration, leaves frozen chunks behind a writable tail.
func TestTPCCColdFreezeKeepsWorkloadRunning(t *testing.T) {
	db := testTPCC(t, 64)
	for i := 0; i < 3; i++ {
		if err := db.newOrders(100, false); err != nil {
			t.Fatal(err)
		}
		if err := db.newOrder.Freeze(); err != nil {
			t.Fatal(err)
		}
	}
	if db.newOrder.Stats().FrozenChunks == 0 {
		t.Fatal("no new_order chunk frozen")
	}
	if err := db.newOrders(50, false); err != nil {
		t.Fatal(err)
	}
}

// TestTPCCFreezeAllThenReadOnly: the paper's second configuration, at a
// realistic chunk size and with enough orders to fill it: in small blocks
// the per-block PSMA metadata — 16 KiB for an 8-byte order key — outweighs
// the compression (the Figure 10 left edge).
func TestTPCCFreezeAllThenReadOnly(t *testing.T) {
	db := testTPCC(t, 1<<14)
	if err := db.newOrders(1000, false); err != nil {
		t.Fatal(err)
	}
	before := db.stats()
	if err := db.freezeAll(); err != nil {
		t.Fatal(err)
	}
	after := db.stats()
	if after.HotChunks != 0 {
		t.Fatalf("hot chunks remain: %d", after.HotChunks)
	}
	if after.FrozenBytes >= before.HotBytes+before.FrozenBytes {
		t.Fatalf("freezing did not shrink the footprint: %d -> %d", before.HotBytes+before.FrozenBytes, after.FrozenBytes)
	}
	if err := db.readOnly(100); err != nil {
		t.Fatalf("read-only on the frozen database: %v", err)
	}
	// The write path still works: updates move stock rows back to hot.
	if err := db.newOrders(20, false); err != nil {
		t.Fatalf("new-order on the frozen database: %v", err)
	}
}

func TestTPCCDeterminism(t *testing.T) {
	run := func() int64 {
		db := testTPCC(t, 256)
		if err := db.newOrders(50, false); err != nil {
			t.Fatal(err)
		}
		var sum int64
		for i := 0; i < 20; i++ {
			v, err := db.orderStatusTx()
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		return sum
	}
	if a, b := run(), run(); a != b || a == 0 {
		t.Fatalf("order-status totals %d and %d", a, b)
	}
}
