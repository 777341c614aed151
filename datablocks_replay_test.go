package datablocks

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datablocks/internal/wal"
	"datablocks/internal/walfs"
)

// replayModel is one writer's acknowledged state: key → amount, plus the
// keys it deleted (candidates for re-insertion).
type replayModel struct {
	live    map[int64]float64
	deleted []int64
}

// TestWALParallelReplayMatchesModel: concurrent writers run random
// histories — inserts, in-place updates, deletes, re-inserts of deleted
// keys, key-changing updates within and across stripes — at 1/2/4/8
// stripes, with a checkpoint under the writers, so replay runs on top of
// a manifest written mid-history (that checkpoint is what exposed updates
// lost as "key absent" before PR 25). One unacknowledged insert is torn
// mid-frame on one stripe; then the filesystem crashes. The reopened
// table must equal a sequential model of the acknowledged operations by
// point lookup, by full scan and by row count: the torn stripe's verified
// prefix and every other stripe replay in full. A corrupt record on one
// stripe instead fails the reopen (testCorruptStripeRefusesTable).
func TestWALParallelReplayMatchesModel(t *testing.T) {
	for _, corrupt := range []string{"undecodable", "misrouted"} {
		t.Run("corrupt="+corrupt, func(t *testing.T) { testCorruptStripeRefusesTable(t, corrupt) })
	}
	for _, stripes := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			dir := t.TempDir()
			ffs := walfs.NewFaultFS()
			db, err := openPath(ffs, dir, walOpts(stripes)...)
			if err != nil {
				t.Fatal(err)
			}
			tbl := mustCreateEvents(t, db)
			const writers, ops = 4, 250
			models := make([]replayModel, writers)
			var wg sync.WaitGroup
			var half sync.WaitGroup
			half.Add(writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					m := &models[w]
					m.live = make(map[int64]float64)
					rng := rand.New(rand.NewSource(int64(stripes*100 + w)))
					next := int64(w) * 1_000_000
					// fresh returns an unused key of this writer's range whose
					// stripe is (or, when same is false, is not) that of key.
					fresh := func(key int64, same bool) int64 {
						for tries := 0; ; tries++ {
							next++
							if stripes == 1 || tries > 64 || (tbl.stripeOf(next) == tbl.stripeOf(key)) == same {
								return next
							}
						}
					}
					anyLive := func() (int64, bool) {
						for k := range m.live {
							return k, true
						}
						return 0, false
					}
					for i := 0; i < ops; i++ {
						if i == ops/2 {
							half.Done()
						}
						amt := float64(w*ops + i)
						row := func(k int64) Row { return Row{Int(k), Float(amt), Str(fmt.Sprintf("w%d-%d", w, i))} }
						key, ok := anyLive()
						switch op := rng.Intn(6); {
						case !ok || op == 0:
							k := fresh(0, true)
							if _, err := tbl.Insert(row(k)); err != nil {
								t.Errorf("insert %d: %v", k, err)
								return
							}
							m.live[k] = amt
						case op == 1:
							if err := tbl.Update(key, row(key)); err != nil {
								t.Errorf("update %d: %v", key, err)
								return
							}
							m.live[key] = amt
						case op == 2:
							if ok, err := tbl.Delete(key); !ok || err != nil {
								t.Errorf("delete %d: %v %v", key, ok, err)
								return
							}
							delete(m.live, key)
							m.deleted = append(m.deleted, key)
						case op == 3 && len(m.deleted) > 0:
							k := m.deleted[len(m.deleted)-1]
							m.deleted = m.deleted[:len(m.deleted)-1]
							if _, err := tbl.Insert(row(k)); err != nil {
								t.Errorf("re-insert %d: %v", k, err)
								return
							}
							m.live[k] = amt
						default: // key change, within (op 4) or across (op 5) stripes
							k := fresh(key, op == 4)
							if err := tbl.Update(key, row(k)); err != nil {
								t.Errorf("rename %d → %d: %v", key, k, err)
								return
							}
							delete(m.live, key)
							m.deleted = append(m.deleted, key)
							m.live[k] = amt
						}
					}
				}(w)
			}
			half.Wait()
			if err = tbl.Freeze(); err != nil { // checkpoint under the writers
				t.Fatal(err)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// An unacknowledged insert torn 5 bytes into its frame: its stripe
			// ends in a torn tail, the others end clean.
			torn := int64(9_000_000)
			appends, _ := ffs.Ops()
			ffs.TearAppend(appends+1, 5)
			if _, err = tbl.Insert(Row{Int(torn), Float(-1), Str("torn")}); err == nil {
				t.Fatal("torn insert acknowledged")
			}
			if err = ffs.Crash(1 << 20); err != nil {
				t.Fatal(err)
			}

			db2, err := OpenPath(dir, walOpts(stripes)...)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			tbl2 := db2.Table("events")
			want := make(map[int64]float64)
			for _, m := range models {
				for k, v := range m.live {
					want[k] = v
				}
			}
			if got := tbl2.NumRows(); got != len(want) {
				t.Fatalf("recovered %d rows, model has %d", got, len(want))
			}
			for k, v := range want {
				if row, ok := tbl2.Lookup(k); !ok || row[1].Float() != v {
					t.Fatalf("key %d: lookup %v %v, model %v", k, row, ok, v)
				}
			}
			res, err := tbl2.Scan([]string{"id", "amount"}, nil, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int64]bool, res.NumRows())
			for i := 0; i < res.NumRows(); i++ {
				row := res.Row(i)
				k := row[0].Int()
				if v, ok := want[k]; !ok || v != row[1].Float() || seen[k] {
					t.Fatalf("scan row %v: model has %v %v, seen before %v", row, v, ok, seen[k])
				}
				seen[k] = true
			}
			if len(seen) != len(want) {
				t.Fatalf("scan found %d rows, model has %d", len(seen), len(want))
			}
			m := tbl2.Metrics().Wal
			if m.TornTails != 1 || m.Replayed == 0 {
				t.Fatalf("wal metrics after reopen: %+v (want one torn tail and replayed records)", m)
			}
		})
	}
}

// testCorruptStripeRefusesTable: a record that frames and checksums
// correctly but is wrong on one stripe — undecodable, or decodable with a
// key that routes to another stripe (per-stripe replay rests on one key,
// one file) — fails the reopen, and no table is registered.
func testCorruptStripeRefusesTable(t *testing.T, corrupt string) {
	dir := t.TempDir()
	db, err := OpenPath(dir, walOpts(4)...)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustCreateEvents(t, db)
	loadEvents(t, tbl, 200)
	_ = tbl.release() // crash: the logs close, nothing is checkpointed
	path := filepath.Join(dir, "events", "wal-2.log")
	if corrupt == "undecodable" {
		appendUndecodableRecord(t, path)
	} else {
		// Log a key of another stripe into stripe 2's file.
		key := int64(0)
		for tbl.stripeOf(key) == 2 {
			key++
		}
		var seq atomic.Uint64
		var st wal.Stats
		l, _, err := wal.Open(walfs.OS, path, eventsWALSchema(), &seq, &st)
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := l.Append(wal.OpInsert, key, Row{Int(key), Float(1), Str("x")})
		if err == nil {
			err = l.Wait(b)
		}
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	if db2, err := OpenPath(dir, walOpts(4)...); err == nil || db2 != nil {
		t.Fatalf("reopen over a %s record: db %v, err %v", corrupt, db2, err)
	}
	// The same through table construction directly: the failed table is
	// never registered.
	db3 := &DB{tables: make(map[string]*Table), dir: dir, fs: walfs.OS}
	cols := []Column{{Name: "id", Kind: Int64}, {Name: "amount", Kind: Float64}, {Name: "status", Kind: String}}
	if _, err := db3.createTable("events", cols, true, append(walOpts(4), WithPrimaryKey("id"))...); err == nil {
		t.Fatal("createTable recovered over a corrupt stripe")
	}
	if names := db3.Tables(); len(names) != 0 {
		t.Fatalf("failed recovery registered %v", names)
	}
}

// appendUndecodableRecord appends a frame whose CRC32-C verifies but whose
// body (an insert with presence byte 7) does not decode.
func appendUndecodableRecord(t *testing.T, path string) {
	t.Helper()
	body := binary.LittleEndian.AppendUint64(nil, 1<<40) // LSN above every real one
	body = append(body, wal.OpInsert)
	body = binary.LittleEndian.AppendUint64(body, 1)
	body = append(body, 7)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(frame, body...)); err != nil {
		t.Fatal(err)
	}
}

// openFDsUnder counts this process's open file descriptors on files
// under dir.
func openFDsUnder(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd")
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestOpenPathFailureReleasesEverything: when the second of two WAL
// tables fails recovery, OpenPath releases everything it opened — the
// first table's compactor and stripe logs, the second table's stripe
// logs — and returns only after every per-stripe replay goroutine has
// finished: no goroutine and no open file is left behind.
func TestOpenPathFailureReleasesEverything(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir, walOpts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	cols := []Column{{Name: "id", Kind: Int64}, {Name: "v", Kind: Float64}}
	for _, name := range []string{"a", "b"} {
		tbl, cerr := db.CreateTable(name, cols, WithPrimaryKey("id"))
		if cerr != nil {
			t.Fatal(cerr)
		}
		for i := int64(0); i < 2000; i++ {
			if _, ierr := tbl.Insert(Row{Int(i), Float(1)}); ierr != nil {
				t.Fatal(ierr)
			}
		}
		_ = tbl.release() // crash: the logs close, nothing is checkpointed
	}
	appendUndecodableRecord(t, filepath.Join(dir, "b", "wal-1.log"))

	goroutines, fds := runtime.NumGoroutine(), openFDsUnder(t, dir)
	db2, err := OpenPath(dir, append(walOpts(2), WithAutoFreeze(1))...)
	if err == nil || db2 != nil {
		t.Fatalf("OpenPath over a corrupt stripe: db %v, err %v", db2, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after the failed OpenPath, %d before", n, goroutines)
	}
	if n := openFDsUnder(t, dir); n != fds {
		t.Fatalf("%d open files after the failed OpenPath, %d before", n, fds)
	}
}
