package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"datablocks/internal/types"
	"datablocks/internal/walfs"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Kind: types.Int64},
		types.Column{Name: "amount", Kind: types.Float64},
		types.Column{Name: "status", Kind: types.String, Nullable: true},
	)
}

func testRow(i int64) types.Row {
	if i%7 == 0 {
		return types.Row{types.IntValue(i), types.FloatValue(float64(i) / 2), types.NullValue(types.String)}
	}
	return types.Row{types.IntValue(i), types.FloatValue(float64(i) / 2), types.StringValue("s")}
}

// mustOpen opens the log and drains its iterator, each record decoded
// into a fresh Record (the iterator's buffer reuse is
// TestRecordsReuseRowBuffer's subject).
func mustOpen(t *testing.T, fs walfs.FS, path string, seq *atomic.Uint64, st *Stats) (*Log, []Record) {
	t.Helper()
	l, rs, err := Open(fs, path, testSchema(), seq, st)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for {
		var rec Record
		ok, err := rs.Next(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if n := len(recs); n > 0 && recs[n-1].LSN != rs.LastLSN() {
		t.Fatalf("last record has LSN %d, framing pass found %d", recs[n-1].LSN, rs.LastLSN())
	}
	return l, recs
}

// TestAppendWaitReopen is the basic durability roundtrip: acknowledged
// records come back from a fresh Open, in LSN order, bit-exact.
func TestAppendWaitReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var seq atomic.Uint64
	var st Stats
	l, recs := mustOpen(t, walfs.OS, path, &seq, &st)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	const n = 50
	for i := int64(0); i < n; i++ {
		op := byte(OpInsert)
		switch i % 3 {
		case 1:
			op = OpUpdate
		case 2:
			op = OpDelete
		}
		row := testRow(i)
		if op == OpDelete {
			row = nil
		}
		lsn, b, err := l.Append(op, i, row)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn %d for record %d", lsn, i)
		}
		if err := l.Wait(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var seq2 atomic.Uint64
	var st2 Stats
	l2, recs2 := mustOpen(t, walfs.OS, path, &seq2, &st2)
	defer l2.Close()
	if len(recs2) != n {
		t.Fatalf("recovered %d records, want %d", len(recs2), n)
	}
	for i, rec := range recs2 {
		if rec.LSN != uint64(i+1) || rec.Key != int64(i) {
			t.Fatalf("record %d: lsn %d key %d", i, rec.LSN, rec.Key)
		}
		if rec.Op == OpDelete {
			if rec.Row != nil {
				t.Fatalf("delete record %d carries a row", i)
			}
			continue
		}
		want := testRow(int64(i))
		if len(rec.Row) != len(want) {
			t.Fatalf("record %d: %d values", i, len(rec.Row))
		}
		if rec.Row[0].Int() != want[0].Int() || rec.Row[1].Float() != want[1].Float() {
			t.Fatalf("record %d round-trip mismatch: %v", i, rec.Row)
		}
		if want[2].IsNull() != rec.Row[2].IsNull() {
			t.Fatalf("record %d null flag lost", i)
		}
	}
	if got := seq2.Load(); got != n {
		t.Fatalf("sequence recovered to %d, want %d", got, n)
	}
}

// TestGroupCommitOneFsync stages several records before the first Wait:
// the leader must flush them all with a single append+fsync.
func TestGroupCommitOneFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var seq atomic.Uint64
	var st Stats
	l, _ := mustOpen(t, walfs.OS, path, &seq, &st)
	defer l.Close()
	var batches []*Batch
	for i := int64(0); i < 5; i++ {
		_, b, err := l.Append(OpInsert, i, testRow(i))
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
	for _, b := range batches {
		if err := l.Wait(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Batches.Load(); got != 1 {
		t.Fatalf("%d group-commit flushes for 5 staged records, want 1", got)
	}
	if got := st.Records.Load(); got != 5 {
		t.Fatalf("%d records flushed, want 5", got)
	}
}

// TestGroupCommitConcurrentWriters drives concurrent appenders and checks
// every acknowledged record is durable and batching actually grouped them.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var seq atomic.Uint64
	var st Stats
	l, _ := mustOpen(t, walfs.OS, path, &seq, &st)
	const writers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := int64(w*per + i)
				_, b, err := l.Append(OpInsert, key, testRow(key))
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.Wait(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := st.Records.Load(); got != writers*per {
		t.Fatalf("%d records flushed, want %d", got, writers*per)
	}
	var seq2 atomic.Uint64
	var st2 Stats
	l2, recs := mustOpen(t, walfs.OS, path, &seq2, &st2)
	defer l2.Close()
	if len(recs) != writers*per {
		t.Fatalf("recovered %d records, want %d", len(recs), writers*per)
	}
	seen := make(map[int64]bool, len(recs))
	last := uint64(0)
	for _, rec := range recs {
		if rec.LSN <= last {
			t.Fatalf("LSNs not strictly ascending at %d", rec.LSN)
		}
		last = rec.LSN
		seen[rec.Key] = true
	}
	if len(seen) != writers*per {
		t.Fatalf("%d distinct keys recovered, want %d", len(seen), writers*per)
	}
}

// TestTornTailTruncated appends garbage after a clean close; Open must
// recover the verified prefix, count the torn tail and cut it.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var seq atomic.Uint64
	var st Stats
	l, _ := mustOpen(t, walfs.OS, path, &seq, &st)
	for i := int64(0); i < 10; i++ {
		_, b, err := l.Append(OpInsert, i, testRow(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Wait(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var seq2 atomic.Uint64
	var st2 Stats
	l2, recs := mustOpen(t, walfs.OS, path, &seq2, &st2)
	defer l2.Close()
	if len(recs) != 10 {
		t.Fatalf("recovered %d records, want 10", len(recs))
	}
	if got := st2.TornTails.Load(); got != 1 {
		t.Fatalf("TornTails = %d, want 1", got)
	}
	// The cut must be durable: a third open sees a clean file.
	var seq3 atomic.Uint64
	var st3 Stats
	l3, recs3 := mustOpen(t, walfs.OS, path, &seq3, &st3)
	defer l3.Close()
	if len(recs3) != 10 || st3.TornTails.Load() != 0 {
		t.Fatalf("second recovery: %d records, %d torn tails", len(recs3), st3.TornTails.Load())
	}
}

// TestTruncationMatrix is the WAL-layer crash-point matrix: the log image
// is cut at EVERY byte offset — record boundaries and mid-record alike —
// and recovery must return exactly the records whose frames fit the cut,
// never an error, never a partial record.
func TestTruncationMatrix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	var seq atomic.Uint64
	var st Stats
	l, _ := mustOpen(t, walfs.OS, path, &seq, &st)
	const n = 8
	for i := int64(0); i < n; i++ {
		_, b, err := l.Append(OpInsert, i, testRow(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Wait(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Record end offsets, from a full scan of the intact image.
	full, valid, err := ScanRecords(img, testSchema())
	if err != nil || len(full) != n || valid != int64(len(img)) {
		t.Fatalf("intact image: %d records, valid %d/%d, err %v", len(full), valid, len(img), err)
	}
	for cut := 0; cut <= len(img); cut++ {
		recs, v, err := ScanRecords(img[:cut], testSchema())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if v > int64(cut) {
			t.Fatalf("cut %d: valid prefix %d exceeds image", cut, v)
		}
		// Re-scanning the valid prefix must be a fixed point.
		again, v2, err := ScanRecords(img[:v], testSchema())
		if err != nil || v2 != v || len(again) != len(recs) {
			t.Fatalf("cut %d: prefix not a fixed point (%d/%d records, valid %d/%d, err %v)",
				cut, len(again), len(recs), v2, v, err)
		}
		for i, rec := range recs {
			if rec.LSN != uint64(i+1) || rec.Key != int64(i) {
				t.Fatalf("cut %d record %d: lsn %d key %d", cut, i, rec.LSN, rec.Key)
			}
		}
		// A cut at this exact offset recovers through a real Open too.
		if cut == len(img) || cut == len(img)/2 {
			sub := filepath.Join(dir, "copy")
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			cp := filepath.Join(sub, "wal.log")
			if err := os.WriteFile(cp, img[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			var s2 atomic.Uint64
			var st2 Stats
			l2, got := mustOpen(t, walfs.OS, cp, &s2, &st2)
			l2.Close()
			if len(got) != len(recs) {
				t.Fatalf("cut %d: Open recovered %d records, scan says %d", cut, len(got), len(recs))
			}
		}
	}
}

// TestFailSyncPoisons injects an fsync failure: the waiter gets the
// error, the log poisons, and truncation refuses while poisoned.
func TestFailSyncPoisons(t *testing.T) {
	ffs := walfs.NewFaultFS()
	path := filepath.Join(t.TempDir(), "wal.log")
	var seq atomic.Uint64
	var st Stats
	l, _ := mustOpen(t, ffs, path, &seq, &st)
	// Sync 1 is the header; fail the first record flush.
	ffs.FailSync(2)
	_, b, err := l.Append(OpInsert, 1, testRow(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(b); err == nil {
		t.Fatal("Wait succeeded through a failed fsync")
	}
	if _, _, err := l.Append(OpInsert, 2, testRow(2)); err == nil {
		t.Fatal("Append succeeded on a poisoned log")
	}
	if err := l.Err(); err == nil {
		t.Fatal("Err() nil on a poisoned log")
	}
	if err := l.TruncateAll(); err == nil {
		t.Fatal("TruncateAll succeeded on a poisoned log")
	}
}

// TestTornAppendRecovers tears a group-commit append mid-frame: the
// waiter errors, and reopening the file recovers every record
// acknowledged before the tear and nothing after.
func TestTornAppendRecovers(t *testing.T) {
	ffs := walfs.NewFaultFS()
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	var seq atomic.Uint64
	var st Stats
	l, _ := mustOpen(t, ffs, path, &seq, &st)
	for i := int64(0); i < 5; i++ {
		_, b, err := l.Append(OpInsert, i, testRow(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Wait(b); err != nil {
			t.Fatal(err)
		}
	}
	// Append 1 was the header; the next record flush is append 7 — tear
	// it 3 bytes in.
	appends, _ := ffs.Ops()
	ffs.TearAppend(appends+1, 3)
	_, b, err := l.Append(OpInsert, 99, testRow(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(b); err == nil {
		t.Fatal("Wait succeeded through a torn append")
	}
	if err := ffs.Crash(1 << 20); err != nil {
		t.Fatal(err)
	}
	var seq2 atomic.Uint64
	var st2 Stats
	l2, recs := mustOpen(t, walfs.OS, path, &seq2, &st2)
	defer l2.Close()
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want the 5 acknowledged", len(recs))
	}
	if st2.TornTails.Load() != 1 {
		t.Fatalf("torn tail not detected")
	}
}

// TestTruncateAllRefusesStagedBatch: truncation with a staged unflushed
// batch would drop a record a writer is about to be acknowledged for.
func TestTruncateAllRefusesStagedBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var seq atomic.Uint64
	var st Stats
	l, _ := mustOpen(t, walfs.OS, path, &seq, &st)
	defer l.Close()
	_, b, err := l.Append(OpInsert, 1, testRow(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateAll(); err == nil {
		t.Fatal("TruncateAll succeeded with a staged batch")
	}
	if err := l.Wait(b); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateAll(); err != nil {
		t.Fatal(err)
	}
	var seq2 atomic.Uint64
	var st2 Stats
	l2, recs := mustOpen(t, walfs.OS, path, &seq2, &st2)
	defer l2.Close()
	if len(recs) != 0 {
		t.Fatalf("%d records survive TruncateAll", len(recs))
	}
}

// writeLog appends n acknowledged records — every third a delete, every
// third an update — to a fresh log and returns its image.
func writeLog(t *testing.T, path string, n int64) []byte {
	t.Helper()
	var seq atomic.Uint64
	var st Stats
	l, _ := mustOpen(t, walfs.OS, path, &seq, &st)
	for i := int64(0); i < n; i++ {
		op, row := []byte{OpInsert, OpUpdate, OpDelete}[i%3], testRow(i)
		if op == OpDelete {
			row = nil
		}
		_, b, err := l.Append(op, i, row)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Wait(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestRecordsCountsAndSkip: the framing pass counts inserts and finds
// the last LSN without decoding; SkipThrough passes records by
// LSN alone and Next resumes right after them.
func TestRecordsCountsAndSkip(t *testing.T) {
	img := writeLog(t, filepath.Join(t.TempDir(), "wal.log"), 10)
	rs, valid, err := frame(img, testSchema())
	if err != nil || valid != int64(len(img)) {
		t.Fatalf("frame: valid %d/%d, err %v", valid, len(img), err)
	}
	if rs.Inserts() != 4 || rs.LastLSN() != 10 {
		t.Fatalf("framing pass: %d inserts, last LSN %d; want 4, 10", rs.Inserts(), rs.LastLSN())
	}
	if k := rs.SkipThrough(4); k != 4 {
		t.Fatalf("SkipThrough(4) passed %d records", k)
	}
	if k := rs.SkipThrough(2); k != 0 {
		t.Fatalf("SkipThrough below the position passed %d records", k)
	}
	var rec Record
	if ok, err := rs.Next(&rec); !ok || err != nil || rec.LSN != 5 || rec.Key != 4 {
		t.Fatalf("after the skip: %v %v lsn %d key %d", ok, err, rec.LSN, rec.Key)
	}
	if k := rs.SkipThrough(100); k != 5 {
		t.Fatalf("SkipThrough past the end passed %d records, want 5", k)
	}
	if ok, err := rs.Next(&rec); ok || err != nil {
		t.Fatalf("Next after the last record: %v %v", ok, err)
	}
}

// TestRecordsReuseRowBuffer: iterating decodes every row into the one
// buffer the caller passes, so a whole replay allocates the iterator, one
// row and the string values — nothing per record.
func TestRecordsReuseRowBuffer(t *testing.T) {
	img := writeLog(t, filepath.Join(t.TempDir(), "wal.log"), 300)
	schema := testSchema()
	strs := 0
	for i := int64(0); i < 300; i++ {
		if i%3 != 2 && !testRow(i)[2].IsNull() {
			strs++
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		rs, _, err := frame(img, schema)
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		var first *types.Value
		for {
			ok, err := rs.Next(&rec)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			if len(rec.Row) == 0 {
				continue
			}
			if first == nil {
				first = &rec.Row[0]
			} else if &rec.Row[0] != first {
				t.Fatal("Next reallocated the caller's row buffer")
			}
		}
	})
	if max := float64(2 + strs); allocs > max {
		t.Fatalf("%.0f allocations to iterate 300 records, want at most %.0f (iterator, row, %d strings)", allocs, max, strs)
	}
}

// TestOpenFramesWithoutDecoding: Open verifies frames only. A CRC-valid
// record that does not decode is not a torn tail — Open keeps it and
// still cuts the real torn tail behind it — and the iterator reports it
// as an error. A CRC-valid body too short for a record and an LSN that
// does not ascend are refused by the framing pass itself.
func TestOpenFramesWithoutDecoding(t *testing.T) {
	dir := t.TempDir()
	img := writeLog(t, filepath.Join(dir, "wal.log"), 3)
	bad := binary.LittleEndian.AppendUint64(nil, 9)
	bad = append(bad, OpInsert)
	bad = binary.LittleEndian.AppendUint64(bad, 3)
	bad = append(bad, 7) // presence byte 7: undecodable
	good := appendBody(nil, testSchema(), Record{LSN: 10, Op: OpInsert, Key: 4, Row: testRow(4)})
	withBad := appendFrame(appendFrame(bytes.Clone(img), bad), good)
	path := filepath.Join(dir, "bad.log")
	if err := os.WriteFile(path, append(bytes.Clone(withBad), 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}
	var seq atomic.Uint64
	var st Stats
	l, rs, err := Open(walfs.OS, path, testSchema(), &seq, &st)
	if err != nil {
		t.Fatalf("Open refused a log whose frames verify: %v", err)
	}
	defer l.Close()
	if rs.LastLSN() != 10 || seq.Load() != 10 || st.TornTails.Load() != 1 {
		t.Fatalf("framing pass: last LSN %d, sequence %d, %d torn tails; want 10, 10, 1", rs.LastLSN(), seq.Load(), st.TornTails.Load())
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(len(withBad)) {
		t.Fatalf("torn tail not cut: %d bytes, want %d", fi.Size(), len(withBad))
	}
	var rec Record
	for i := 0; i < 3; i++ {
		if ok, err := rs.Next(&rec); !ok || err != nil {
			t.Fatalf("record %d: %v %v", i, ok, err)
		}
	}
	if _, err := rs.Next(&rec); err == nil {
		t.Fatal("undecodable record iterated without an error")
	}

	for name, body := range map[string][]byte{
		"short":     bad[:16],
		"lsn-order": appendBody(nil, testSchema(), Record{LSN: 2, Op: OpDelete, Key: 9}),
	} {
		if _, _, err := frame(appendFrame(bytes.Clone(img), body), testSchema()); err == nil {
			t.Fatalf("%s: framing pass accepted a malformed verified frame", name)
		}
	}
}

// FuzzWALReplay feeds arbitrary (and corrupted-real) log images to the
// recovery scanner: it must never panic, never return a record from an
// unverified region, and always produce a valid prefix that rescans to
// the same result — corruption yields clean truncation or a clean error,
// never wrong records.
func FuzzWALReplay(f *testing.F) {
	schema := testSchema()
	// Seed with a genuine image and simple mutations of it.
	dir := f.TempDir()
	path := filepath.Join(dir, "wal.log")
	var seq atomic.Uint64
	var st Stats
	l, _, err := Open(walfs.OS, path, schema, &seq, &st)
	if err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		op := byte(OpInsert)
		if i%3 == 2 {
			op = OpDelete
		}
		row := testRow(i)
		if op == OpDelete {
			row = nil
		}
		_, b, aerr := l.Append(op, i, row)
		if aerr != nil {
			f.Fatal(aerr)
		}
		if werr := l.Wait(b); werr != nil {
			f.Fatal(werr)
		}
	}
	l.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add([]byte{})
	flip := bytes.Clone(img)
	flip[len(flip)/3] ^= 0x40
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The oracle drives recovery's own path: the framing pass, then
		// the iterator decoding into one reused record.
		rs, valid, err := frame(data, schema)
		if err != nil {
			return // clean error: bad header or malformed-but-CRC-valid frame
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		n, inserts, last := 0, 0, uint64(0)
		var rec Record
		for {
			ok, err := rs.Next(&rec)
			if err != nil {
				return // clean error: corrupt-but-CRC-valid record, never wrong results
			}
			if !ok {
				break
			}
			if rec.LSN <= last {
				t.Fatal("recovered LSNs not strictly ascending")
			}
			last = rec.LSN
			n++
			switch rec.Op {
			case OpInsert, OpUpdate:
				if len(rec.Row) != schema.NumColumns() {
					t.Fatalf("recovered row has %d values", len(rec.Row))
				}
				if rec.Op == OpInsert {
					inserts++
				}
			case OpDelete:
				if len(rec.Row) != 0 {
					t.Fatal("delete record carries a row")
				}
			default:
				t.Fatalf("op %d decoded", rec.Op)
			}
		}
		if inserts != rs.Inserts() || last != rs.LastLSN() {
			t.Fatalf("framing pass counted %d inserts, last LSN %d; iteration found %d, %d",
				rs.Inserts(), rs.LastLSN(), inserts, last)
		}
		again, v2, err2 := ScanRecords(data[:valid], schema)
		if err2 != nil || v2 != valid || len(again) != n {
			t.Fatalf("valid prefix is not a fixed point: %d/%d records, valid %d/%d, err %v",
				len(again), n, v2, valid, err2)
		}
	})
}
