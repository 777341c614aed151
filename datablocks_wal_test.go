package datablocks

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datablocks/internal/types"
	"datablocks/internal/wal"
	"datablocks/internal/walfs"
)

// walOpts are the WAL crash tests' table defaults. Deliberately no
// WithAutoFreeze: without background work, dropping a *DB without Close
// is a faithful crash — nothing runs after the last acknowledged fsync.
func walOpts(stripes int) []TableOption {
	return []TableOption{WithChunkRows(256), WithWriteStripes(stripes), WithWAL()}
}

// eventsWALSchema mirrors mustCreateEvents for direct wal.ScanRecords use.
func eventsWALSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Kind: types.Int64},
		types.Column{Name: "amount", Kind: types.Float64},
		types.Column{Name: "status", Kind: types.String},
	)
}

// copyTree clones a database directory so a crash image can be mutilated
// without disturbing the original.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWALReplayAfterCrash runs a mixed acknowledged workload — inserts,
// in-place updates, key-changing updates, deletes, striped four ways —
// then crashes (no Close, no manifest) and reopens: replay must rebuild
// the exact table.
func TestWALReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir, walOpts(4)...)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustCreateEvents(t, db)
	loadEvents(t, tbl, 200)
	want := make(map[int64]float64, 200)
	for i := int64(0); i < 200; i++ {
		want[i] = float64(i) / 2
	}
	// In-place updates.
	for i := int64(0); i < 200; i += 5 {
		if uerr := tbl.Update(i, Row{Int(i), Float(1000 + float64(i)), Str("upd")}); uerr != nil {
			t.Fatal(uerr)
		}
		want[i] = 1000 + float64(i)
	}
	// Key-changing updates (logged as delete+insert in each key's stripe).
	for i := int64(3); i < 100; i += 7 {
		nk := i + 10_000
		if uerr := tbl.Update(i, Row{Int(nk), Float(want[i]), Str("moved")}); uerr != nil {
			t.Fatal(uerr)
		}
		want[nk] = want[i]
		delete(want, i)
	}
	// Deletes.
	for i := int64(1); i < 200; i += 9 {
		if _, live := want[i]; live {
			if ok, derr := tbl.Delete(i); derr != nil || !ok {
				t.Fatalf("delete %d refused: %v %v", i, ok, derr)
			}
			delete(want, i)
		}
	}

	// Crash: drop the handle. Acknowledged writes are fsynced in the
	// stripe logs; no manifest was ever written.
	db2, err := OpenPath(dir, walOpts(4)...)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	tbl2 := db2.Table("events")
	if tbl2 == nil {
		t.Fatal("events table not recovered")
	}
	if got := tbl2.NumRows(); got != len(want) {
		t.Fatalf("recovered %d rows, want %d", got, len(want))
	}
	for k, amt := range want {
		row, ok := tbl2.Lookup(k)
		if !ok {
			t.Fatalf("acknowledged key %d lost", k)
		}
		if row[1].Float() != amt {
			t.Fatalf("key %d: amount %v, want %v", k, row[1].Float(), amt)
		}
	}
	for _, k := range []int64{1, 10, 19} { // deleted keys
		if _, ok := tbl2.Lookup(k); ok {
			t.Fatalf("deleted key %d resurrected", k)
		}
	}
	if m := tbl2.Metrics().Wal; m.Replayed == 0 {
		t.Fatal("replay counter did not move")
	}
	// The recovered table keeps working: a post-recovery write cycle.
	if _, err := tbl2.Insert(Row{Int(77_777), Float(1), Str("post")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl2.Update(77_777, Row{Int(77_777), Float(2), Str("post")}); err != nil {
		t.Fatal(err)
	}
}

// TestReopenFreezesReplayedBacklog: a WAL table's replay rebuilds sealed
// hot chunks with no write left to announce them, so reopening with
// WithAutoFreeze must wake the background worker itself, or the backlog
// stays hot until some later write opens a fresh chunk.
func TestReopenFreezesReplayedBacklog(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir, walOpts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustCreateEvents(t, db)
	loadEvents(t, tbl, 2000)
	_ = tbl.release() // crash: the logs close, nothing is checkpointed
	db2, err := OpenPath(dir, append(walOpts(1), WithAutoFreeze(1))...)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2 := db2.Table("events")
	deadline := time.Now().Add(5 * time.Second)
	for tbl2.rel.SealedHotChunks() > 0 || tbl2.Stats().FrozenChunks == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replayed backlog not frozen: %d sealed, %d frozen",
				tbl2.rel.SealedHotChunks(), tbl2.Stats().FrozenChunks)
		}
		time.Sleep(time.Millisecond)
	}
	if got := tbl2.NumRows(); got != 2000 {
		t.Fatalf("recovered %d rows, want 2000", got)
	}
}

// TestWALCrashPointMatrix is the deterministic crash-point matrix: the
// stripe log of an acknowledged insert sequence is truncated at every
// record boundary AND mid-record, and every image must reopen to exactly
// the acknowledged prefix that survived whole — clean truncation, never
// a half-applied record, never an error.
func TestWALCrashPointMatrix(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir, walOpts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustCreateEvents(t, db)
	const n = 10
	loadEvents(t, tbl, n)
	// Crash (no Close); take the stripe log image.
	img, err := os.ReadFile(filepath.Join(dir, "events", "wal-0.log"))
	if err != nil {
		t.Fatal(err)
	}
	// Find every record's end offset by sweeping the scanner over all
	// prefixes.
	schema := eventsWALSchema()
	boundaries := []int64{} // end offset of record i at boundaries[i]
	for cut := 0; cut <= len(img); cut++ {
		recs, _, err := wal.ScanRecords(img[:cut], schema)
		if err != nil {
			t.Fatalf("prefix %d: %v", cut, err)
		}
		if len(recs) > len(boundaries) {
			boundaries = append(boundaries, int64(cut))
		}
	}
	if len(boundaries) != n {
		t.Fatalf("found %d record boundaries, want %d", len(boundaries), n)
	}

	// Cut points: 0, mid-header, each boundary, and several mid-record
	// offsets inside each frame.
	type cutCase struct {
		at   int64
		want int // rows a reopen must recover
	}
	cases := []cutCase{{0, 0}, {5, 0}, {8, 0}}
	prev := int64(8)
	for i, b := range boundaries {
		cases = append(cases,
			cutCase{b, i + 1},          // exact record boundary
			cutCase{prev + 1, i},       // 1 byte into the frame
			cutCase{(prev + b) / 2, i}, // mid-record
			cutCase{b - 1, i},          // 1 byte short of complete
		)
		prev = b
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("cut=%d", c.at), func(t *testing.T) {
			crash := t.TempDir()
			copyTree(t, dir, crash)
			lp := filepath.Join(crash, "events", "wal-0.log")
			if err := os.Truncate(lp, c.at); err != nil {
				t.Fatal(err)
			}
			db2, err := OpenPath(crash, walOpts(1)...)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			tbl2 := db2.Table("events")
			if got := tbl2.NumRows(); got != c.want {
				t.Fatalf("recovered %d rows, want %d", got, c.want)
			}
			for i := 0; i < c.want; i++ {
				row, ok := tbl2.Lookup(int64(i))
				if !ok || row[1].Float() != float64(i)/2 {
					t.Fatalf("surviving key %d wrong: %v %v", i, row, ok)
				}
			}
			if _, ok := tbl2.Lookup(int64(c.want)); ok {
				t.Fatalf("truncated record %d half-applied", c.want)
			}
			// The recovered image accepts new writes and they stick.
			if _, ierr := tbl2.Insert(Row{Int(5000), Float(5), Str("new")}); ierr != nil {
				t.Fatal(ierr)
			}
			if cerr := db2.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			db3, err := OpenPath(crash, walOpts(1)...)
			if err != nil {
				t.Fatal(err)
			}
			defer db3.Close()
			if _, ok := db3.Table("events").Lookup(5000); !ok {
				t.Fatal("post-recovery insert lost")
			}
		})
	}
}

// TestWALGroupCommitCrashProperty is the group-commit durability
// property: concurrent writers record which writes were acknowledged;
// the filesystem crashes at an arbitrary moment (everything unsynced is
// discarded); after reopen every acknowledged write must be present.
// Unacknowledged writes may or may not survive — for keys whose last
// attempt was not acknowledged, any attempted value (or the prior acked
// one) is legal, but nothing else.
func TestWALGroupCommitCrashProperty(t *testing.T) {
	const writers = 4
	for round := 0; round < 3; round++ {
		round := round
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			dir := t.TempDir()
			ffs := walfs.NewFaultFS()
			db, err := openPath(ffs, dir, walOpts(8)...)
			if err != nil {
				t.Fatal(err)
			}
			mustCreateEvents(t, db)
			tbl := db.Table("events")

			type keyState struct {
				acked    bool      // last attempt on this key acknowledged
				ackedAmt float64   // value of the last acknowledged attempt
				tried    []float64 // values attempted since the last ack
			}
			states := make([]map[int64]*keyState, writers)
			var acks atomic.Int64
			crashAfter := int64(50 + round*150) // vary the crash point per round
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				states[w] = make(map[int64]*keyState)
				go func(w int) {
					defer wg.Done()
					mine := states[w]
					rng := rand.New(rand.NewSource(int64(1000*round + w)))
					for i := 0; ; i++ {
						key := int64(w*1_000_000 + i)
						amt := float64(i)
						st := &keyState{tried: []float64{amt}}
						mine[key] = st
						if _, err := tbl.Insert(Row{Int(key), Float(amt), Str("new")}); err != nil {
							return // crashed (or poisoned) — stop writing
						}
						st.acked, st.ackedAmt, st.tried = true, amt, nil
						acks.Add(1)
						if rng.Intn(4) == 0 && i > 0 {
							// In-place update of one of my earlier keys.
							uk := int64(w*1_000_000 + rng.Intn(i))
							us := mine[uk]
							uv := amt + 0.5
							us.tried = append(us.tried, uv)
							if err := tbl.Update(uk, Row{Int(uk), Float(uv), Str("upd")}); err != nil {
								return
							}
							us.acked, us.ackedAmt, us.tried = true, uv, nil
							acks.Add(1)
						}
					}
				}(w)
			}
			// Crash once enough writes were acknowledged: every byte not
			// yet fsynced is gone, all later file ops fail.
			for acks.Load() < crashAfter {
			}
			if cerr := ffs.Crash(0); cerr != nil {
				t.Fatal(cerr)
			}
			wg.Wait()

			db2, err := OpenPath(dir, walOpts(8)...)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer db2.Close()
			tbl2 := db2.Table("events")
			checked := 0
			for w := 0; w < writers; w++ {
				for key, st := range states[w] {
					row, ok := tbl2.Lookup(key)
					if st.acked && len(st.tried) == 0 {
						// Fully acknowledged, nothing in flight: exact.
						if !ok {
							t.Fatalf("acknowledged key %d lost", key)
						}
						if got := row[1].Float(); got != st.ackedAmt {
							t.Fatalf("key %d: amount %v, want acknowledged %v", key, got, st.ackedAmt)
						}
						checked++
						continue
					}
					// An unacknowledged attempt was in flight at the
					// crash. Present ⇒ value must be one of the attempts
					// (or the prior ack); absent is legal only if the
					// insert itself was never acknowledged.
					if !ok {
						if st.acked {
							t.Fatalf("acknowledged key %d lost (unacked update may not erase it)", key)
						}
						continue
					}
					got := row[1].Float()
					legal := st.acked && got == st.ackedAmt
					for _, v := range st.tried {
						legal = legal || got == v
					}
					if !legal {
						t.Fatalf("key %d recovered with value %v, never written", key, got)
					}
				}
			}
			if checked == 0 {
				t.Fatal("property test checked no acknowledged keys")
			}
			if int64(checked) < crashAfter/2 {
				t.Fatalf("only %d acknowledged keys verified, crash threshold %d", checked, crashAfter)
			}
		})
	}
}

// TestWALStripedWritersRace hammers a striped WAL table from concurrent
// writers (inserts, updates, deletes) with a concurrent reader, closes
// cleanly, reopens, and checks the survivors. Exercised under -race by
// the race CI target.
func TestWALStripedWritersRace(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir, walOpts(8)...)
	if err != nil {
		t.Fatal(err)
	}
	mustCreateEvents(t, db)
	tbl := db.Table("events")
	const writers, per = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * per)
			for i := int64(0); i < per; i++ {
				key := base + i
				if _, err := tbl.Insert(Row{Int(key), Float(float64(key)), Str("new")}); err != nil {
					t.Errorf("insert %d: %v", key, err)
					return
				}
				switch i % 3 {
				case 1:
					if err := tbl.Update(key, Row{Int(key), Float(-float64(key)), Str("upd")}); err != nil {
						t.Errorf("update %d: %v", key, err)
						return
					}
				case 2:
					if ok, derr := tbl.Delete(key); derr != nil || !ok {
						t.Errorf("delete %d refused: %v %v", key, ok, derr)
						return
					}
				}
			}
		}(w)
	}
	// Concurrent reader: lookups must never see a torn row.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for k := int64(0); k < writers*per; k += 97 {
				if row, ok := tbl.Lookup(k); ok && row[0].Int() != k {
					t.Errorf("lookup %d returned row keyed %d", k, row[0].Int())
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	if t.Failed() {
		return
	}
	wantRows := writers * per * 2 / 3
	if got := tbl.NumRows(); got != wantRows {
		t.Fatalf("%d live rows, want %d", got, wantRows)
	}
	m := tbl.Metrics().Wal
	if m.Stripes != 8 {
		t.Fatalf("Stripes = %d, want 8", m.Stripes)
	}
	if m.Records == 0 || m.Batches == 0 || m.Batches > m.Records {
		t.Fatalf("implausible WAL counters: %+v", m)
	}
	if cerr := db.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	db2, err := OpenPath(dir, walOpts(8)...)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2 := db2.Table("events")
	if got := tbl2.NumRows(); got != wantRows {
		t.Fatalf("reopen: %d live rows, want %d", got, wantRows)
	}
	for k := int64(0); k < writers*per; k++ {
		row, ok := tbl2.Lookup(k)
		switch k % 3 {
		case 0:
			if !ok || row[1].Float() != float64(k) {
				t.Fatalf("inserted key %d: %v %v", k, row, ok)
			}
		case 1:
			if !ok || row[1].Float() != -float64(k) {
				t.Fatalf("updated key %d: %v %v", k, row, ok)
			}
		case 2:
			if ok {
				t.Fatalf("deleted key %d resurrected", k)
			}
		}
	}
}

// TestWALCheckpointSkipsAndTruncates covers the WAL↔manifest contract:
// records at or below the manifest's applied LSN are skipped at replay
// (the blocks already hold them), and a checkpoint with no hot residue
// truncates the stripe logs.
func TestWALCheckpointSkipsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir, walOpts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustCreateEvents(t, db)
	loadEvents(t, tbl, 100)
	// FreezeAll: every chunk durable, manifest written, logs truncatable.
	if ferr := tbl.FreezeAll(); ferr != nil {
		t.Fatal(ferr)
	}
	for i := 0; i < 2; i++ {
		fi, serr := os.Stat(filepath.Join(dir, "events", fmt.Sprintf("wal-%d.log", i)))
		if serr != nil {
			t.Fatal(serr)
		}
		if fi.Size() > 8 {
			t.Fatalf("stripe %d log is %d bytes after full checkpoint, want header only", i, fi.Size())
		}
	}
	// More acknowledged writes after the checkpoint, then crash.
	for i := int64(100); i < 150; i++ {
		if _, ierr := tbl.Insert(Row{Int(i), Float(float64(i)), Str("hot")}); ierr != nil {
			t.Fatal(ierr)
		}
	}
	if uerr := tbl.Update(0, Row{Int(0), Float(-1), Str("upd")}); uerr != nil {
		t.Fatal(uerr)
	}

	db2, err := OpenPath(dir, walOpts(2)...)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	tbl2 := db2.Table("events")
	if got := tbl2.NumRows(); got != 150 {
		t.Fatalf("recovered %d rows, want 150", got)
	}
	if row, ok := tbl2.Lookup(0); !ok || row[1].Float() != -1 {
		t.Fatalf("post-checkpoint update lost: %v %v", row, ok)
	}
	if row, ok := tbl2.Lookup(149); !ok || row[1].Float() != 149 {
		t.Fatalf("post-checkpoint insert lost: %v %v", row, ok)
	}
	m := tbl2.Metrics().Wal
	if m.Replayed == 0 {
		t.Fatal("post-checkpoint records were not replayed")
	}
}

// TestWALEpochContinuity: the MVCC write epoch must be monotonic across a
// crash-restart, so version visibility ordering established before the
// crash cannot invert after it.
func TestWALEpochContinuity(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir, walOpts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustCreateEvents(t, db)
	loadEvents(t, tbl, 50)
	for r := 0; r < 5; r++ { // advance the epoch well past zero
		for i := int64(0); i < 50; i += 10 {
			if uerr := tbl.Update(i, Row{Int(i), Float(float64(100*r) + float64(i)), Str("upd")}); uerr != nil {
				t.Fatal(uerr)
			}
		}
	}
	if ferr := tbl.Freeze(); ferr != nil { // manifest carries the epoch
		t.Fatal(ferr)
	}
	preEpoch := tbl.Metrics().Epoch.WriteEpoch

	db2, err := OpenPath(dir, walOpts(2)...)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	tbl2 := db2.Table("events")
	if got := tbl2.Metrics().Epoch.WriteEpoch; got < preEpoch {
		t.Fatalf("write epoch regressed across restart: %d < %d", got, preEpoch)
	}
	// Last committed versions won; a fresh update supersedes them.
	if row, ok := tbl2.Lookup(10); !ok || row[1].Float() != 410 {
		t.Fatalf("key 10 recovered as %v %v, want amount 410", row, ok)
	}
	if err := tbl2.Update(10, Row{Int(10), Float(9999), Str("post")}); err != nil {
		t.Fatal(err)
	}
	if row, ok := tbl2.Lookup(10); !ok || row[1].Float() != 9999 {
		t.Fatalf("post-restart update not visible: %v %v", row, ok)
	}
}

// TestWALBulkLoadReplay: a bulk load is one group commit; its rows must
// survive a crash with no manifest.
func TestWALBulkLoadReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir, walOpts(4)...)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustCreateEvents(t, db)
	const n = 500
	ids := make([]int64, n)
	amts := make([]float64, n)
	strs := make([]string, n)
	for i := range ids {
		ids[i] = int64(i)
		amts[i] = float64(i) * 3
		strs[i] = "bulk"
	}
	cols := []ColumnData{
		{Kind: Int64, Ints: ids},
		{Kind: Float64, Floats: amts},
		{Kind: String, Strs: strs},
	}
	if lerr := tbl.BulkLoad(cols, n); lerr != nil {
		t.Fatal(lerr)
	}
	preBatches := tbl.Metrics().Wal.Batches

	db2, err := OpenPath(dir, walOpts(4)...)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	tbl2 := db2.Table("events")
	if got := tbl2.NumRows(); got != n {
		t.Fatalf("recovered %d rows, want %d", got, n)
	}
	for _, k := range []int64{0, 1, n / 2, n - 1} {
		row, ok := tbl2.Lookup(k)
		if !ok || row[1].Float() != float64(k)*3 {
			t.Fatalf("bulk row %d: %v %v", k, row, ok)
		}
	}
	if preBatches == 0 {
		t.Fatal("bulk load flushed no group-commit batch")
	}
}

// TestWALCrossStripeRenameCrashKeepsAcknowledgedRow pins the ordering of
// a key-changing cross-stripe update's two WAL records: the insert half
// (new key's stripe log) must be durable before the delete half (old
// key's stripe log) is even staged. The crash point exercised here —
// insert half fsynced, delete half appended but its fsync fails, then
// power loss discards everything unsynced — must leave BOTH versions
// alive. Under a delete-first ordering the mirrored crash point (delete
// durable, insert torn) destroyed the acknowledged pre-update row with no
// surviving version.
func TestWALCrossStripeRenameCrashKeepsAcknowledgedRow(t *testing.T) {
	dir := t.TempDir()
	ffs := walfs.NewFaultFS()
	db, err := openPath(ffs, dir, walOpts(4)...)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustCreateEvents(t, db)
	k1 := int64(0)
	k2 := int64(1)
	for tbl.stripeOf(k2) == tbl.stripeOf(k1) {
		k2++
	}
	if _, ierr := tbl.Insert(Row{Int(k1), Float(7), Str("new")}); ierr != nil {
		t.Fatal(ierr)
	}
	_, syncs := ffs.Ops()
	// The rename's insert half is the next fsync, its delete half the one
	// after. Fail the delete half's fsync, then crash dropping all
	// unsynced bytes (the appended delete record).
	ffs.FailSync(syncs + 2)
	if uerr := tbl.Update(k1, Row{Int(k2), Float(8), Str("moved")}); uerr == nil {
		t.Fatal("update with a failed delete-half fsync reported success")
	}
	if cerr := ffs.Crash(0); cerr != nil {
		t.Fatal(cerr)
	}

	db2, err := OpenPath(dir, walOpts(4)...)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	tbl2 := db2.Table("events")
	row, ok := tbl2.Lookup(k1)
	if !ok || row[1].Float() != 7 {
		t.Fatalf("acknowledged pre-update row %d lost or wrong: %v %v", k1, row, ok)
	}
	// The durable insert half legitimately survives alongside it: the
	// unacknowledged update half-applied, destroying nothing.
	row2, ok2 := tbl2.Lookup(k2)
	if !ok2 || row2[1].Float() != 8 {
		t.Fatalf("durable insert half %d lost: %v %v", k2, row2, ok2)
	}
	if got := tbl2.NumRows(); got != 2 {
		t.Fatalf("recovered %d rows, want 2", got)
	}
}

// TestWALOptionValidation: the WAL needs a durable table with a primary
// key; anything else must refuse at create, not fail at runtime.
func TestWALOptionValidation(t *testing.T) {
	db := Open() // in-memory
	defer db.Close()
	if _, err := db.CreateTable("t", []Column{{Name: "id", Kind: Int64}},
		WithPrimaryKey("id"), WithWAL()); err == nil {
		t.Fatal("WithWAL accepted on an in-memory table")
	}
	dir := t.TempDir()
	db2, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.CreateTable("t", []Column{{Name: "id", Kind: Int64}}, WithWAL()); err == nil {
		t.Fatal("WithWAL accepted without a primary key")
	}
}
