// Hybrid: OLTP and OLAP against the same database state (Figure 1).
// Writers stream point inserts/updates into hot chunks while an analytical
// query repeatedly scans the cold compressed Data Blocks. Chunks that fall
// behind the insert tail are frozen by the database's background worker
// (WithAutoFreeze); compression runs outside the relation lock, so neither
// the writer nor the scanner stalls.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"datablocks"
	"datablocks/internal/exec"
)

func main() {
	db := datablocks.Open()
	orders, err := db.CreateTable("orders", []datablocks.Column{
		{Name: "id", Kind: datablocks.Int64},
		{Name: "customer", Kind: datablocks.Int64},
		{Name: "amount_cents", Kind: datablocks.Int64},
		{Name: "region", Kind: datablocks.String},
	}, datablocks.WithPrimaryKey("id"), datablocks.WithChunkRows(1<<13), datablocks.WithAutoFreeze(1))
	if err != nil {
		log.Fatal(err)
	}
	regions := []string{"EMEA", "APAC", "AMER"}
	var nextID atomic.Int64
	insert := func() {
		id := nextID.Add(1)
		_, err := orders.Insert(datablocks.Row{
			datablocks.Int(id),
			datablocks.Int(id % 5000),
			datablocks.Int((id * 37) % 100000),
			datablocks.Str(regions[id%3]),
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 100_000; i++ {
		insert()
	}
	if err = orders.Freeze(); err != nil {
		log.Fatal(err)
	}
	st := orders.Stats()
	fmt.Printf("initial load: %d rows, %d frozen blocks, %d hot chunk(s)\n",
		orders.NumRows(), st.FrozenChunks, st.HotChunks)

	// Analytical plan: revenue by region for big orders, over hot+cold.
	scan, err := orders.ScanPlan([]string{"region", "amount_cents"}, []datablocks.Pred{
		{Col: "amount_cents", Op: datablocks.Ge, Lo: datablocks.Int(50_000)},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	olap := &exec.AggNode{
		Child:   scan,
		GroupBy: []int{0},
		Aggs: []exec.AggSpec{
			{Func: exec.AggCount},
			{Func: exec.AggSum, Arg: datablocks.DivE(datablocks.Col(1), datablocks.CInt(100))},
		},
	}

	const duration = 2 * time.Second
	deadline := time.Now().Add(duration)
	var writes, scans atomic.Int64
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // OLTP writer: inserts + updates + lookups
		defer wg.Done()
		i := int64(0)
		for time.Now().Before(deadline) {
			insert()
			writes.Add(1)
			if i%10 == 0 { // update a cold tuple: migrates to hot
				key := i%90_000 + 1
				if row, ok := orders.Lookup(key); ok {
					row[2] = datablocks.Int(row[2].Int() + 1)
					if err := orders.Update(key, row); err != nil {
						log.Fatal(err)
					}
					writes.Add(1)
				}
			}
			i++
		}
	}()
	wg.Add(1)
	go func() { // OLAP reader: repeated scans over hot + frozen chunks
		defer wg.Done()
		for time.Now().Before(deadline) {
			if _, err := datablocks.Query(olap, datablocks.QueryOptions{
				Mode: datablocks.ModeVectorizedSARGPSMA,
			}); err != nil {
				log.Fatal(err)
			}
			scans.Add(1)
		}
	}()
	wg.Wait()
	if err = db.Close(); err != nil { // stop the background worker
		log.Fatal(err)
	}

	res, err := datablocks.Query(olap, datablocks.QueryOptions{Mode: datablocks.ModeVectorizedSARGPSMA})
	if err != nil {
		log.Fatal(err)
	}
	st = orders.Stats()
	fmt.Printf("after %v mixed workload: %d writes, %d analytic scans (auto-freeze in background)\n",
		duration, writes.Load(), scans.Load())
	fmt.Printf("storage: %d frozen blocks (%s), %d hot chunks (%s), %d deleted row versions\n",
		st.FrozenChunks, fmtBytes(st.FrozenBytes), st.HotChunks, fmtBytes(st.HotBytes), st.DeletedRows)
	fmt.Println("revenue by region (orders >= $500):")
	for i := 0; i < res.NumRows(); i++ {
		fmt.Printf("  %-5s %8d orders  $%.2f\n",
			res.Value(0, i).Str(), res.Value(1, i).Int(), res.Value(2, i).Float())
	}
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
