// Package wal is the per-stripe write-ahead log behind the table write
// path: the component that makes acknowledged hot-row writes survive a
// crash, closing the durability gap the manifest machinery leaves (a
// manifest covers frozen chunks only; rows still hot at a crash used to
// be lost).
//
// # Log format (version 1)
//
// One log file per write stripe. The file opens with an 8-byte header —
// magic "DBWL" (u32 LE) then format version (u32 LE) — followed by
// records, each framed as
//
//	u32 length of body | u32 CRC32-C of body | body
//
// and each body encoding
//
//	u64 LSN | u8 op | s64 key | row (op-dependent)
//
// with the row serialized schema-positionally: per column a presence
// byte (0 value, 1 NULL) and then the value — int64 LE, float64 bits
// LE, or u32 length + UTF-8 bytes. Ops: insert (row, key unused for
// tables without a primary key), update (key = the pre-update primary
// key, row = the complete new version), delete (key only).
//
// LSNs are drawn from one table-global sequence, assigned under the
// stripe's batch lock, so each stripe's file is LSN-ascending. The table
// logs every effect on a key to that key's stripe file, so one file's
// order is the serialization order of every conflicting pair
// (conflicting operations share the key's stripe lock, which spans both
// the apply and the LSN draw) and stripe files replay independently.
//
// # Group commit
//
// Append stages a record in the stripe's open batch and returns without
// touching the disk; Wait acknowledges it. The first waiter becomes the
// batch leader: it claims the open batch, writes it with one append and
// one fsync, and wakes every staged writer at once. Writers that arrive
// while a flush is in flight stage into the next batch and queue on the
// flush lock, so under contention the fsync cost amortizes over the
// whole group — the classic leader/follower commit of write-optimized
// engines — while a lone writer degrades to exactly one fsync per
// record.
//
// A failed append or fsync poisons the log: the durable state of the
// file tail is unknown after a failed fsync, and appending past a torn
// write would put unreachable bytes behind garbage, so every later
// Append and Wait fails fast with the original error. The table keeps
// serving reads; writes report the durability loss instead of hiding it.
//
// # Recovery
//
// Open reads the file once and makes one framing pass over it: it
// verifies each frame's length and CRC and that LSNs ascend, stops at the
// first frame that does not verify — a torn group-commit tail — truncates
// the file back to the end of the verified prefix before appending
// resumes, and advances the LSN sequence once, to the last verified LSN.
// It decodes nothing: it returns a Records iterator over the verified
// frames, and each Next decodes one body into a row buffer the caller
// reuses, so replay never holds more than one decoded record and
// allocates only string values. A record that frames and checksums
// correctly but does not decode against the schema is corruption, not a
// torn tail: Next reports it as an error rather than silently dropping a
// suffix that may contain acknowledged writes.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"

	"datablocks/internal/obs"
	"datablocks/internal/types"
	"datablocks/internal/walfs"
)

const (
	// Magic opens every log file ("DBWL", little-endian).
	Magic = 0x4C574244
	// Version is the on-disk format version of header and records.
	Version = 1
	// headerSize is the file header: magic u32 | version u32.
	headerSize = 8
	// frameSize is the per-record frame: body length u32 | CRC32-C u32.
	frameSize = 8
	// maxBody bounds a single record body; larger lengths read as torn.
	maxBody = 1 << 26
	// bodyHeader is a body's fixed prefix: LSN u64 | op u8 | key s64.
	bodyHeader = 17
)

// Record ops.
const (
	// OpInsert appends Row; Key mirrors the primary key (0 without one).
	OpInsert = byte(1)
	// OpUpdate rewrites the row at pre-update primary key Key with Row.
	OpUpdate = byte(2)
	// OpDelete removes primary key Key.
	OpDelete = byte(3)
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one logical write: the unit of logging and replay.
type Record struct {
	LSN uint64
	Op  byte
	// Key is the primary key the operation addresses: the pre-update key
	// for OpUpdate, the deleted key for OpDelete, the inserted row's key
	// for OpInsert on tables with a primary key (diagnostic there — the
	// row carries it — and unused without one).
	Key int64
	// Row is the complete tuple for OpInsert/OpUpdate, nil for OpDelete.
	Row types.Row
}

// Stats is the log's telemetry, aggregated by the owning table across
// its stripes (shared atomic instruments; the WAL sits on the per-call
// write path, not inside scan kernels).
type Stats struct {
	// Records counts appended records; Batches counts group-commit
	// flushes (each one append + one fsync), so Records/Batches is the
	// achieved commit group size.
	Records, Batches obs.Counter
	// Bytes counts appended bytes including frames.
	Bytes obs.Counter
	// Replayed counts records re-applied by recovery; ReplaySkipped
	// counts records recovery found already durable (at or below the
	// manifest's applied LSN, or already present in restored blocks).
	Replayed, ReplaySkipped obs.Counter
	// TornTails counts recovery scans that had to cut a torn suffix.
	TornTails obs.Counter
}

// Log is one stripe's write-ahead log.
type Log struct {
	f      walfs.File
	schema *types.Schema
	seq    *atomic.Uint64
	st     *Stats

	// mu guards batch formation: staging a record, drawing its LSN and
	// extending cur are one critical section, so file order within the
	// stripe is LSN order.
	mu      sync.Mutex
	cur     *batch
	scratch []byte
	poison  error

	// flushMu admits one flusher at a time; waiters of an already-claimed
	// batch queue here and find their batch done when they get the lock.
	flushMu sync.Mutex
}

// batch is one group-commit unit: framed records accumulated between
// flushes. err is written (at most once) before done closes.
type batch struct {
	data []byte
	n    int
	done chan struct{}
	err  error
}

// Batch is an acknowledgement handle: Append stages the record and
// returns the batch it joined; Wait(batch) blocks until that batch's
// fsync decided the record's durability.
type Batch = batch

// Open opens (or creates) the log at path, makes the framing pass,
// truncates a torn tail, and returns an iterator over the verified
// records for replay, in file (= LSN) order. seq is the table-global LSN
// sequence: Open advances it past every LSN in the file so new records
// sort after recovered ones. st receives the log's telemetry (must be
// non-nil).
func Open(fs walfs.FS, path string, schema *types.Schema, seq *atomic.Uint64, st *Stats) (_ *Log, _ *Records, err error) {
	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close()
			err = fmt.Errorf("wal: %s: %w", path, err)
		}
	}()
	size, err := f.Size()
	var buf []byte
	if err == nil && size >= headerSize {
		buf = make([]byte, size)
		_, err = f.ReadAt(buf, 0)
	}
	if err != nil {
		return nil, nil, err
	}
	recs, valid, err := frame(buf, schema)
	if err != nil {
		return nil, nil, err
	}
	if valid == 0 {
		// No verified header: new file, or a create torn before the
		// header synced (nothing was ever acknowledged from it).
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[0:], Magic)
		binary.LittleEndian.PutUint32(hdr[4:], Version)
		if size != 0 {
			err = f.Truncate(0)
		}
		if err == nil {
			err = f.Append(hdr[:])
		}
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("header: %w", err)
		}
	} else if size > valid {
		// Torn group-commit tail: cut it before appends resume, so new
		// records are never stranded behind garbage.
		st.TornTails.Inc()
		if err = f.Truncate(valid); err == nil {
			err = f.Sync()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("truncate torn tail: %w", err)
		}
	}
	Advance(seq, recs.last)
	return &Log{f: f, schema: schema, seq: seq, st: st}, recs, nil
}

// Advance raises seq to lsn unless it is already at or past it.
func Advance(seq *atomic.Uint64, lsn uint64) {
	for cur := seq.Load(); cur < lsn && !seq.CompareAndSwap(cur, lsn); cur = seq.Load() {
	}
}

// Append stages one record for the next group commit and returns its
// LSN and batch handle. The record's effect must already be applied to
// the in-memory relation (apply-then-log: a checkpoint that reads the
// stripe's last assigned LSN under the stripe lock then knows every
// effect at or below it is visible to its snapshot). The write is not
// durable — and must not be acknowledged — until Wait returns nil.
func (l *Log) Append(op byte, key int64, row types.Row) (uint64, *Batch, error) {
	l.mu.Lock()
	if l.poison != nil {
		err := l.poison
		l.mu.Unlock()
		return 0, nil, err
	}
	lsn := l.seq.Add(1)
	l.scratch = appendBody(l.scratch[:0], l.schema, Record{LSN: lsn, Op: op, Key: key, Row: row})
	if l.cur == nil {
		l.cur = &batch{done: make(chan struct{})}
	}
	l.cur.data = appendFrame(l.cur.data, l.scratch)
	l.cur.n++
	b := l.cur
	l.mu.Unlock()
	return lsn, b, nil
}

// AppendRows stages one insert record per row in a single batch — the
// bulk-load path: one lock acquisition, one flush, one fsync for the
// whole load. Returns the first and last LSN of the run.
func (l *Log) AppendRows(rows []types.Row, keyCol int) (first, last uint64, b *Batch, err error) {
	if len(rows) == 0 {
		return 0, 0, nil, nil
	}
	l.mu.Lock()
	if l.poison != nil {
		err := l.poison
		l.mu.Unlock()
		return 0, 0, nil, err
	}
	if l.cur == nil {
		l.cur = &batch{done: make(chan struct{})}
	}
	for i, row := range rows {
		lsn := l.seq.Add(1)
		if i == 0 {
			first = lsn
		}
		last = lsn
		var key int64
		if keyCol >= 0 && !row[keyCol].IsNull() {
			key = row[keyCol].Int()
		}
		l.scratch = appendBody(l.scratch[:0], l.schema, Record{LSN: lsn, Op: OpInsert, Key: key, Row: row})
		l.cur.data = appendFrame(l.cur.data, l.scratch)
		l.cur.n++
	}
	b = l.cur
	l.mu.Unlock()
	return first, last, b, nil
}

// Wait blocks until b's batch is durable and returns its outcome. The
// first waiter of an unflushed batch becomes the leader: it performs the
// batch's single append+fsync and wakes the group. A nil b (no WAL
// record was staged) returns nil.
func (l *Log) Wait(b *Batch) error {
	if b == nil {
		return nil
	}
	select {
	case <-b.done:
		return b.err
	default:
	}
	l.flushMu.Lock()
	select {
	case <-b.done:
		// A leader flushed our batch while we queued.
		l.flushMu.Unlock()
		return b.err
	default:
	}
	// We are the leader: detach the batch so new appends open a fresh one
	// while our fsync is in flight.
	l.mu.Lock()
	if l.cur == b {
		l.cur = nil
	}
	err := l.poison
	l.mu.Unlock()
	if err == nil {
		if err = l.f.Append(b.data); err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			l.mu.Lock()
			l.poison = err
			l.mu.Unlock()
		} else {
			l.st.Records.Add(uint64(b.n))
			l.st.Batches.Inc()
			l.st.Bytes.Add(uint64(len(b.data)))
		}
	}
	b.err = err
	close(b.done)
	l.flushMu.Unlock()
	return err
}

// Err returns the poison error, or nil while the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poison
}

// TruncateAll discards every record (the checkpoint fast path: the
// manifest's applied LSN has caught up with the stripe's last assigned
// LSN, so nothing in the file is needed for recovery). It refuses while
// a batch is staged and unflushed, and on a poisoned log — records a
// failed fsync left in limbo must survive for recovery.
func (l *Log) TruncateAll() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.poison != nil {
		return l.poison
	}
	if l.cur != nil {
		return fmt.Errorf("wal: truncate with a staged unflushed batch")
	}
	if err := l.f.Truncate(headerSize); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close releases the file. Staged-but-unflushed records are the caller's
// bug (quiesce writers first); they die with the process as they would
// at a crash.
func (l *Log) Close() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// appendFrame frames one body: length, CRC32-C, body.
func appendFrame(buf, body []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, crcTable))
	return append(buf, body...)
}

// appendBody serializes a record body (see the package doc's format).
func appendBody(buf []byte, schema *types.Schema, rec Record) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, rec.LSN)
	buf = append(buf, rec.Op)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Key))
	if rec.Op == OpDelete {
		return buf
	}
	for i, v := range rec.Row {
		if v.IsNull() {
			buf = append(buf, 1)
			continue
		}
		buf = append(buf, 0)
		switch schema.Columns[i].Kind {
		case types.Int64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
		case types.Float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
		default:
			s := v.Str()
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
	}
	return buf
}

// Records iterates the verified records of one log image in file (= LSN)
// order. The framing pass that built it checked every frame's length and
// CRC and every LSN; Next decodes one body per call.
type Records struct {
	buf     []byte // header + the verified frames
	schema  *types.Schema
	off     int
	inserts int    // verified OpInsert records
	last    uint64 // LSN of the last verified record, 0 without one
}

// Inserts returns how many of the verified records are inserts: the
// most keys their replay can add to a primary-key index.
func (rs *Records) Inserts() int { return rs.inserts }

// LastLSN returns the LSN of the last verified record (0 without one).
func (rs *Records) LastLSN() uint64 { return rs.last }

// SkipThrough advances past every remaining record at or below lsn
// without decoding it and returns how many it passed.
func (rs *Records) SkipThrough(lsn uint64) int {
	k := 0
	for ; rs.off < len(rs.buf) && binary.LittleEndian.Uint64(rs.buf[rs.off+frameSize:]) <= lsn; k++ {
		rs.off += frameSize + int(binary.LittleEndian.Uint32(rs.buf[rs.off:]))
	}
	return k
}

// Next decodes the next record into rec, reusing rec.Row's storage for
// the row, so only string values allocate. It reports false after the
// last record, and an error for a body that does not decode.
func (rs *Records) Next(rec *Record) (bool, error) {
	if rs.off >= len(rs.buf) {
		return false, nil
	}
	end := rs.off + frameSize + int(binary.LittleEndian.Uint32(rs.buf[rs.off:]))
	if err := decodeBody(rec, rs.buf[rs.off+frameSize:end], rs.schema); err != nil {
		return false, fmt.Errorf("wal: record at offset %d: %w", rs.off, err)
	}
	rs.off = end
	return true, nil
}

// frame is the framing pass over a full log image: the header, then
// frames until the first one that does not verify (a torn tail). It
// returns the iterator over the verified records and the offset where
// they end — 0 when the image is too short to hold a header. A bad header
// on a full-length image, a verified body too short to hold a record, or
// an LSN that does not ascend is an error.
func frame(buf []byte, schema *types.Schema) (*Records, int64, error) {
	rs := &Records{schema: schema}
	if len(buf) < headerSize {
		return rs, 0, nil
	}
	if m := binary.LittleEndian.Uint32(buf[0:]); m != Magic {
		return nil, 0, fmt.Errorf("wal: bad magic %08x", m)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != Version {
		return nil, 0, fmt.Errorf("wal: unsupported format version %d", v)
	}
	off := headerSize
	for off+frameSize <= len(buf) {
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		if n > maxBody || off+frameSize+n > len(buf) {
			break
		}
		body := buf[off+frameSize : off+frameSize+n]
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(buf[off+4:]) {
			break
		}
		// Framed and checksummed but malformed: corruption or a schema
		// mismatch, not a torn tail.
		if n < bodyHeader {
			return nil, 0, fmt.Errorf("wal: record at offset %d: body too short (%d bytes)", off, n)
		}
		lsn := binary.LittleEndian.Uint64(body)
		if lsn <= rs.last {
			return nil, 0, fmt.Errorf("wal: record at offset %d: LSN %d not ascending (previous %d)", off, lsn, rs.last)
		}
		rs.last = lsn
		if body[8] == OpInsert {
			rs.inserts++
		}
		off += frameSize + n
	}
	rs.buf, rs.off = buf[:off], headerSize
	return rs, int64(off), nil
}

// ScanRecords is the framing pass plus a full iteration over a log image,
// collecting every record into a slice — for the recovery tests, the
// fuzz target and the benchmark's scan probe; recovery itself iterates.
func ScanRecords(buf []byte, schema *types.Schema) ([]Record, int64, error) {
	rs, valid, err := frame(buf, schema)
	var recs []Record
	for ok := err == nil; ok; {
		var rec Record
		if ok, err = rs.Next(&rec); ok {
			recs = append(recs, rec)
		}
	}
	if err != nil {
		return nil, 0, err
	}
	return recs, valid, nil
}

// decodeBody decodes one framed record body (at least bodyHeader bytes)
// into rec, reusing rec.Row's storage. Every defect is an error, never a
// panic: the fuzz target feeds this arbitrary bytes.
func decodeBody(rec *Record, body []byte, schema *types.Schema) error {
	rec.LSN = binary.LittleEndian.Uint64(body[0:])
	rec.Op = body[8]
	rec.Key = int64(binary.LittleEndian.Uint64(body[9:]))
	off := bodyHeader
	switch rec.Op {
	case OpDelete:
		rec.Row = rec.Row[:0]
		if off != len(body) {
			return fmt.Errorf("wal: delete record has %d trailing bytes", len(body)-off)
		}
		return nil
	case OpInsert, OpUpdate:
	default:
		return fmt.Errorf("wal: unknown record op %d", rec.Op)
	}
	if nc := schema.NumColumns(); cap(rec.Row) < nc {
		rec.Row = make(types.Row, nc)
	} else {
		rec.Row = rec.Row[:nc]
	}
	for i := range rec.Row {
		if off >= len(body) {
			return fmt.Errorf("wal: record body truncated at column %d", i)
		}
		null := body[off]
		off++
		kind := schema.Columns[i].Kind
		if null == 1 {
			rec.Row[i] = types.NullValue(kind)
			continue
		}
		if null != 0 {
			return fmt.Errorf("wal: record column %d has presence byte %d", i, null)
		}
		width := 8 // an int64 or a float64; a string's u32 length prefix
		if kind == types.String {
			width = 4
		}
		if off+width > len(body) {
			return fmt.Errorf("wal: record body truncated in column %d", i)
		}
		switch kind {
		case types.Int64:
			rec.Row[i] = types.IntValue(int64(binary.LittleEndian.Uint64(body[off:])))
			off += 8
		case types.Float64:
			rec.Row[i] = types.FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(body[off:])))
			off += 8
		default:
			n := int(binary.LittleEndian.Uint32(body[off:]))
			off += 4
			if n < 0 || off+n > len(body) {
				return fmt.Errorf("wal: record column %d string length %d exceeds body", i, n)
			}
			rec.Row[i] = types.StringValue(string(body[off : off+n]))
			off += n
		}
	}
	if off != len(body) {
		return fmt.Errorf("wal: record body has %d trailing bytes", len(body)-off)
	}
	return nil
}
