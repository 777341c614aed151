package datablocks

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestUpdateLookupNoReadAnomaly is the regression test for the
// update/lookup read anomaly: Table.Update used to retire the old row
// version before repointing the primary-key index, so a concurrent Lookup
// could resolve the stale tuple identifier, find it delete-flagged, and
// miss a key that logically existed at all times. With epoch-versioned
// reads a lookup must always return either the pre- or the post-update
// version — never neither.
func TestUpdateLookupNoReadAnomaly(t *testing.T) {
	_, tbl := ordersTable(t)
	const key = int64(42)
	if _, err := tbl.Insert(Row{Int(key), Float(0), Str("v0")}); err != nil {
		t.Fatal(err)
	}

	const readers = 4
	var (
		misses  atomic.Int64
		lookups atomic.Int64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				row, ok := tbl.Lookup(key)
				lookups.Add(1)
				if !ok {
					misses.Add(1)
					continue
				}
				if row[0].Int() != key {
					t.Errorf("lookup %d returned id %d", key, row[0].Int())
					return
				}
			}
		}()
	}

	deadline := time.Now().Add(2 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		if err := tbl.Update(key, Row{Int(key), Float(float64(i)), Str("vn")}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if n := misses.Load(); n > 0 {
		t.Fatalf("%d of %d lookups missed key %d while it was being updated",
			n, lookups.Load(), key)
	}
}

// TestUpdateLookupStress is the -race stress companion: several writers
// update disjoint hot keys (both in place and with key changes) while
// readers hammer point lookups on them; any transient miss of a live key
// is a failure. Deletes of other keys and background freezing run
// alongside to exercise the epoch machinery across the hot/frozen
// boundary.
func TestUpdateLookupStress(t *testing.T) {
	db, tbl := ordersTable(t, WithChunkRows(256), WithAutoFreeze(1))
	const (
		writers = 4
		rounds  = 2000
		stripe  = int64(1) << 32
	)
	var (
		wg, rwg sync.WaitGroup
		stop    = make(chan struct{})
	)
	errCh := make(chan error, 2*writers)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// One pinned hot key per writer, present from the start so readers may
	// fail hard on any miss.
	for g := 0; g < writers; g++ {
		if _, err := tbl.Insert(Row{Int(int64(g) * stripe), Float(0), Str("pin")}); err != nil {
			t.Fatal(err)
		}
	}

	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int64(g) * stripe
			for i := 0; i < rounds; i++ {
				// Hammer the pinned key with in-place updates.
				if err := tbl.Update(base, Row{Int(base), Float(float64(i)), Str("upd")}); err != nil {
					report(fmt.Errorf("pinned update %d: %w", base, err))
					return
				}
				// Churn the writer's stripe: insert, key-changing update,
				// delete — the non-pinned traffic the epochs must tolerate.
				key := base + 1 + int64(i)
				if _, err := tbl.Insert(Row{Int(key), Float(0), Str("new")}); err != nil {
					report(fmt.Errorf("insert %d: %w", key, err))
					return
				}
				switch i % 3 {
				case 0:
					moved := base + stripe/2 + int64(i)
					if err := tbl.Update(key, Row{Int(moved), Float(1), Str("mv")}); err != nil {
						report(fmt.Errorf("move %d->%d: %w", key, moved, err))
						return
					}
				case 1:
					if ok, derr := tbl.Delete(key); derr != nil || !ok {
						report(fmt.Errorf("delete %d failed: %v %v", key, ok, derr))
						return
					}
				}
			}
		}(g)
	}

	for g := 0; g < writers; g++ {
		rwg.Add(1)
		go func(g int) {
			defer rwg.Done()
			base := int64(g) * stripe
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%64 == 63 {
					runtime.Gosched() // let writers through under -race
				}
				row, ok := tbl.Lookup(base)
				if !ok {
					report(fmt.Errorf("pinned key %d missed", base))
					return
				}
				if row[0].Int() != base {
					report(fmt.Errorf("pinned key %d resolved to id %d", base, row[0].Int()))
					return
				}
			}
		}(g)
	}

	wg.Wait()
	close(stop)
	rwg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < writers; g++ {
		if _, ok := tbl.Lookup(int64(g) * stripe); !ok {
			t.Fatalf("pinned key of writer %d lost after the run", g)
		}
	}
}

// TestLookupDuringFreezeSorted: a sorted freeze reorders every chunk and
// rebuilds the index while lookups run beside it. A lookup that read a
// tuple identifier before the reorder must not return the row that now
// sits there, and a key that exists throughout must never miss. Sorting
// by v = -id reverses each chunk, so a stale identifier names another
// key's row.
func TestLookupDuringFreezeSorted(t *testing.T) {
	for round := 0; round < 3; round++ {
		lookupsBeside(t, func(tbl *Table) error { return tbl.FreezeSorted("v") })
	}
}

// TestLookupDuringBulkLoad: a bulk load rebuilds the index; lookups of
// the keys that were there before it must not miss meanwhile.
func TestLookupDuringBulkLoad(t *testing.T) {
	const n = 1 << 14
	ids, vs := make([]int64, n), make([]int64, n)
	for i := range ids {
		ids[i] = int64(n + i)
	}
	lookupsBeside(t, func(tbl *Table) error {
		return tbl.BulkLoad([]ColumnData{{Kind: Int64, Ints: ids}, {Kind: Int64, Ints: vs}}, n)
	})
}

// lookupsBeside fills a table with 16 Ki rows (id, -id) in chunks of
// 4 Ki, runs reorganize on it while two goroutines look up every key
// over and over, and fails if a lookup missed or returned another key's
// row.
func lookupsBeside(t *testing.T, reorganize func(*Table) error) {
	t.Helper()
	const keys, readers = 1 << 14, 2
	db := Open()
	defer db.Close()
	tbl, err := db.CreateTable("t", []Column{{Name: "id", Kind: Int64}, {Name: "v", Kind: Int64}},
		WithPrimaryKey("id"), WithChunkRows(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < keys; id++ {
		if _, ierr := tbl.Insert(Row{Int(id), Int(-id)}); ierr != nil {
			t.Fatal(ierr)
		}
	}
	var (
		wrong, missed, lookups atomic.Int64
		stop                   = make(chan struct{})
		wg                     sync.WaitGroup
	)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(g); ; i += 7919 {
				select {
				case <-stop:
					return
				default:
				}
				key := i % keys
				row, ok := tbl.Lookup(key)
				lookups.Add(1)
				if !ok {
					missed.Add(1)
				} else if row[0].Int() != key || row[1].Int() != -key {
					wrong.Add(1)
				}
			}
		}(g)
	}
	err = reorganize(tbl)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if wrong.Load() != 0 || missed.Load() != 0 {
		t.Fatalf("of %d lookups, %d returned another key's row and %d missed",
			lookups.Load(), wrong.Load(), missed.Load())
	}
}
