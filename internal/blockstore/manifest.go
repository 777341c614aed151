package blockstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"datablocks/internal/core"
	"datablocks/internal/types"
	"datablocks/internal/walfs"
)

// The durable metadata of a database is two kinds of record file, both
// versioned, generation-stamped and CRC32-C protected:
//
//   - The catalog (catalog-<gen>.dbc, in the database root) lists every
//     table: name, schema, primary key, chunk capacity, write-stripe count
//     and whether it keeps a WAL. It is what OpenPath needs to reconstruct
//     the table set before any data is read.
//   - The manifest (manifest-<gen>.dbm, in a table's block directory)
//     lists the table's frozen chunks in order: the block handle that
//     reloads each chunk, its row count, its delete bitmap, the sort
//     column of the last sorted freeze, the write-epoch high-water mark
//     and each stripe's WAL truncation point.
//
// Records are never updated in place. Each write serializes the whole
// record, writes it atomically to a fresh generation-numbered name
// (walfs.FS.WriteFile), then removes generations older than the
// immediately preceding one. Readers pick the highest generation whose
// checksum and structure verify, so a torn or truncated write (a crash
// mid-rename, a chopped file) falls back to the previous generation —
// never to a half state. Block files referenced by neither the surviving
// manifest generation nor anything else are garbage (an eviction or flush
// that raced a crash before its manifest write) and are removed at
// recovery time via Store.Retain.

const (
	// FormatVersion is the on-disk format version of catalog and manifest
	// records. Blocks themselves carry their own version (core: v2 adds
	// the payload CRC32-C). Version 2 made the WAL fields (the manifest's
	// Epoch and WalApplied, the catalog's WriteStripes and Wal) ordinary
	// fields of every record; a version-1 record is refused, never read
	// as an empty database.
	FormatVersion = 2

	manifestMagic = 0x4D4C4244 // "DBLM"
	catalogMagic  = 0x434C4244 // "DBLC"

	// Record header: magic u32 | version u32 | generation u64 | crc u32
	// (CRC32-C over the payload that follows the header).
	recHdrSize = 20
)

// recCRC is the Castagnoli table shared by catalog and manifest records
// (same polynomial the serialized blocks use).
var recCRC = crc32.MakeTable(crc32.Castagnoli)

// maxWalStripes bounds the stripe counts a decoded record may claim, so a
// corrupt-but-CRC-colliding record cannot drive huge allocations.
const maxWalStripes = 1 << 12

// ManifestChunk describes one frozen chunk of a table: the handle that
// reloads its block, its row count, and its delete state. Rows pending an
// uncommitted update at manifest time are recorded as deleted — their
// commit never becomes durable, so recovery must not resurrect them.
type ManifestChunk struct {
	Handle     Handle
	Rows       int
	NumDeleted int
	// Bytes is the block's compressed in-RAM size, so recovery can account
	// residency against the memory budget without loading the payload.
	Bytes int64
	// Deleted is the chunk's delete bitmap (bit set = deleted), trimmed to
	// Rows; nil when no row is deleted.
	Deleted []uint64
}

// Manifest is the durable description of a table's frozen chunk sequence.
type Manifest struct {
	// Generation is the record's monotonically increasing write stamp; the
	// highest generation that verifies wins at load time.
	Generation uint64
	// SortBy is the column the blocks were last freeze-sorted by, or -1.
	SortBy int
	// Chunks lists the frozen chunks in relation order. Hot chunks are not
	// recorded: recovery covers hot data through the write-ahead log (see
	// WalApplied), frozen data through the chunk list.
	Chunks []ManifestChunk

	// Epoch is the table's write-epoch high-water mark at manifest time.
	// Recovery restores it before WAL replay so replayed mutations mint
	// epochs above everything the previous lifetime acknowledged
	// (cross-restart epoch continuity).
	Epoch uint64
	// WalApplied holds, per write stripe, the highest WAL LSN whose effect
	// is fully covered by this manifest's chunks — the stripe's WAL
	// truncation point. Replay skips records at or below it. Empty when
	// the table runs without a WAL.
	WalApplied []uint64
}

// CatalogTable is one table entry of the catalog.
type CatalogTable struct {
	Name       string
	Columns    []types.Column
	PrimaryKey string // "" when the table has no primary key
	ChunkRows  int

	// WriteStripes and Wal record the table's write-path shape: both are
	// structural (reopening must recreate the same stripe count to route
	// WAL replay, and must know a WAL exists to replay it), so they live
	// in the durable catalog.
	WriteStripes int
	Wal          bool
}

// Catalog is the durable table registry of a database directory.
type Catalog struct {
	Generation uint64
	Tables     []CatalogTable
}

// recKind is one of the two record families: its name, file naming and
// magic.
type recKind struct {
	name, prefix, ext string
	magic             uint32
}

var (
	manifestRec = recKind{"manifest", "manifest-", ".dbm", manifestMagic}
	catalogRec  = recKind{"catalog", "catalog-", ".dbc", catalogMagic}
)

// genFile is one generation-stamped record file on disk.
type genFile struct {
	gen  uint64
	path string
}

// genFiles lists dir's records of kind k (prefix<gen-hex>ext), newest
// generation first. A missing directory reads as empty; any other listing
// error is returned — read as "no records", it would let recovery delete
// every block file the records reference.
func genFiles(fs walfs.FS, dir string, k recKind) ([]genFile, error) {
	entries, err := fs.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("blockstore: list %s records: %w", k.name, err)
	}
	var out []genFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, k.prefix) || !strings.HasSuffix(name, k.ext) {
			continue
		}
		g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, k.prefix), k.ext), 16, 64)
		if err != nil {
			continue
		}
		out = append(out, genFile{g, filepath.Join(dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].gen > out[j].gen })
	return out, nil
}

// writeRecord atomically persists one generation of a record as
// prefix<gen-hex>ext — then prunes generations older than gen-1 (the
// immediately preceding generation is kept as the torn-write fallback).
func writeRecord(fs walfs.FS, dir string, k recKind, gen uint64, payload []byte) error {
	buf := make([]byte, recHdrSize, recHdrSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], k.magic)
	binary.LittleEndian.PutUint32(buf[4:], FormatVersion)
	binary.LittleEndian.PutUint64(buf[8:], gen)
	binary.LittleEndian.PutUint32(buf[16:], crc32.Checksum(payload, recCRC))
	buf = append(buf, payload...)
	if err := fs.WriteFile(filepath.Join(dir, fmt.Sprintf("%s%016x%s", k.prefix, gen, k.ext)), buf); err != nil {
		return fmt.Errorf("blockstore: write %s: %w", k.name, err)
	}
	prune(fs, dir, k, func(g uint64) bool { return g+1 < gen })
	return nil
}

// prune removes the records of kind k in dir whose generation drop
// selects. It is best effort: a record left behind is superseded, and
// loading skips it.
func prune(fs walfs.FS, dir string, k recKind, drop func(gen uint64) bool) {
	files, _ := genFiles(fs, dir, k)
	for _, f := range files {
		if drop(f.gen) {
			fs.Remove(f.path)
		}
	}
}

// loadNewest returns the newest record of kind k in dir that verifies
// (checksum and structure), decoded; nil when dir holds no such record.
// When records exist but none verifies, it is an error: the directory
// demonstrably had durable state, so treating it as empty would let
// recovery garbage-collect intact block files and escalate record
// corruption into data loss. A record that cannot be read at all is an
// error too, not a reason to fall back: the older generation it would
// fall back to predates a WAL truncation, and recovery prunes the newer
// one.
func loadNewest[T any](fs walfs.FS, dir string, k recKind, decode func(gen uint64, payload []byte) (*T, error)) (*T, error) {
	files, err := genFiles(fs, dir, k)
	if err != nil {
		return nil, err
	}
	var newestErr error
	for _, f := range files {
		buf, err := fs.ReadFile(f.path)
		if err != nil {
			return nil, fmt.Errorf("blockstore: read %s: %w", k.name, err)
		}
		gen, payload, err := parseRecord(f.path, buf, k.magic)
		if err == nil {
			var v *T
			if v, err = decode(gen, payload); err == nil {
				return v, nil
			}
		}
		if newestErr == nil {
			newestErr = err
		}
	}
	if newestErr != nil {
		return nil, fmt.Errorf("blockstore: %s records exist in %s but none verifies (newest: %w); refusing to recover as empty", k.name, dir, newestErr)
	}
	return nil, nil
}

// parseRecord verifies the contents of one record file, returning its
// generation and payload. Any defect — wrong magic or version, short file,
// checksum mismatch — is an error; callers fall back to an older
// generation.
func parseRecord(path string, buf []byte, magic uint32) (uint64, []byte, error) {
	if len(buf) < recHdrSize {
		return 0, nil, fmt.Errorf("blockstore: %s: truncated record (%d bytes)", path, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:]) != magic {
		return 0, nil, fmt.Errorf("blockstore: %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != FormatVersion {
		return 0, nil, fmt.Errorf("blockstore: %s: unsupported format version %d", path, v)
	}
	gen := binary.LittleEndian.Uint64(buf[8:])
	if want, got := binary.LittleEndian.Uint32(buf[16:]), crc32.Checksum(buf[recHdrSize:], recCRC); want != got {
		return 0, nil, fmt.Errorf("blockstore: %s: checksum mismatch (header %08x, payload %08x)", path, want, got)
	}
	return gen, buf[recHdrSize:], nil
}

// recReader is a bounds-checked cursor over a record payload: the CRC
// guards against bit rot, the reader against structurally impossible
// values, so a defective payload reads as an error, never a panic.
type recReader struct {
	buf []byte
	off int
	err error
}

func (r *recReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("blockstore: record payload: %s at offset %d of %d", what, r.off, len(r.buf))
	}
}

func (r *recReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail("truncated u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *recReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *recReader) byte() byte {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail("truncated byte")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *recReader) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail("truncated string")
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func encodeManifest(m *Manifest) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(m.SortBy)))
	buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.WalApplied)))
	for _, lsn := range m.WalApplied {
		buf = binary.LittleEndian.AppendUint64(buf, lsn)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Chunks)))
	for i := range m.Chunks {
		c := &m.Chunks[i]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Handle))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Rows))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.NumDeleted))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Bytes))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Deleted)))
		for _, w := range c.Deleted {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return buf
}

func decodeManifest(gen uint64, payload []byte) (*Manifest, error) {
	r := &recReader{buf: payload}
	m := &Manifest{Generation: gen, SortBy: int(int32(r.u32())), Epoch: r.u64()}
	stripes := int(r.u32())
	if r.err == nil && stripes > maxWalStripes {
		return nil, fmt.Errorf("blockstore: manifest records %d WAL stripes", stripes)
	}
	for i := 0; i < stripes && r.err == nil; i++ {
		m.WalApplied = append(m.WalApplied, r.u64())
	}
	count := int(r.u32())
	for i := 0; i < count && r.err == nil; i++ {
		c := ManifestChunk{
			Handle:     Handle(r.u64()),
			Rows:       int(r.u32()),
			NumDeleted: int(r.u32()),
			Bytes:      int64(r.u64()),
		}
		words := int(r.u32())
		if r.err != nil {
			break
		}
		if c.Handle == 0 || c.Rows < 1 || c.Rows > core.MaxRows {
			return nil, fmt.Errorf("blockstore: manifest chunk %d: handle %d, %d rows out of range", i, c.Handle, c.Rows)
		}
		if c.NumDeleted > c.Rows {
			return nil, fmt.Errorf("blockstore: manifest chunk %d: %d deleted of %d rows", i, c.NumDeleted, c.Rows)
		}
		if words > (c.Rows+63)/64 {
			return nil, fmt.Errorf("blockstore: manifest chunk %d: %d bitmap words for %d rows", i, words, c.Rows)
		}
		if words > 0 {
			c.Deleted = make([]uint64, words)
			for w := range c.Deleted {
				c.Deleted[w] = r.u64()
			}
		}
		m.Chunks = append(m.Chunks, c)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("blockstore: manifest payload has %d trailing bytes", len(payload)-r.off)
	}
	return m, nil
}

func encodeCatalog(c *Catalog) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Tables)))
	for i := range c.Tables {
		t := &c.Tables[i]
		buf = appendStr(buf, t.Name)
		buf = appendStr(buf, t.PrimaryKey)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t.ChunkRows))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t.WriteStripes))
		buf = appendBool(buf, t.Wal)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Columns)))
		for _, col := range t.Columns {
			buf = append(buf, byte(col.Kind))
			buf = appendBool(buf, col.Nullable)
			buf = appendStr(buf, col.Name)
		}
	}
	return buf
}

func decodeCatalog(gen uint64, payload []byte) (*Catalog, error) {
	r := &recReader{buf: payload}
	c := &Catalog{Generation: gen}
	count := int(r.u32())
	for i := 0; i < count && r.err == nil; i++ {
		t := CatalogTable{
			Name:         r.str(),
			PrimaryKey:   r.str(),
			ChunkRows:    int(r.u32()),
			WriteStripes: int(r.u32()),
			Wal:          r.byte() != 0,
		}
		if r.err == nil && (t.WriteStripes < 1 || t.WriteStripes > maxWalStripes) {
			return nil, fmt.Errorf("blockstore: catalog table %q records %d write stripes", t.Name, t.WriteStripes)
		}
		cols := int(r.u32())
		for j := 0; j < cols && r.err == nil; j++ {
			kind := types.Kind(r.byte())
			nullable := r.byte() != 0
			name := r.str()
			if kind > types.String {
				return nil, fmt.Errorf("blockstore: catalog table %q: column %q has unknown kind %d", t.Name, name, kind)
			}
			t.Columns = append(t.Columns, types.Column{Name: name, Kind: kind, Nullable: nullable})
		}
		if r.err == nil {
			if t.Name == "" || len(t.Columns) == 0 {
				return nil, fmt.Errorf("blockstore: catalog table %d is empty", i)
			}
			c.Tables = append(c.Tables, t)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("blockstore: catalog payload has %d trailing bytes", len(payload)-r.off)
	}
	return c, nil
}

// WriteManifest atomically persists one generation of a table's manifest
// into dir (the table's block directory) on fs. The caller owns the
// generation counter and must increase it monotonically; the immediately
// preceding generation is retained on disk as the torn-write fallback,
// older ones are pruned.
func WriteManifest(fs walfs.FS, dir string, m *Manifest) error {
	return writeRecord(fs, dir, manifestRec, m.Generation, encodeManifest(m))
}

// LoadManifest returns the newest manifest generation in dir that verifies
// (checksum and structure), or (nil, nil) when the directory holds no
// manifest files at all. Torn, truncated or corrupt newer generations are
// skipped — recovery falls back to the previous generation, never to a
// half state. When manifest files exist but none of them verifies, or the
// directory cannot be listed, LoadManifest returns an error: treating the
// table as empty would let recovery garbage-collect intact block files.
// Use PruneManifests after a successful load to clear the skipped files.
func LoadManifest(fs walfs.FS, dir string) (*Manifest, error) {
	return loadNewest(fs, dir, manifestRec, decodeManifest)
}

// PruneManifests removes every manifest generation other than keep (with
// keep zero: all of them). Recovery calls it after choosing a generation,
// so superseded and corrupt records do not accumulate.
func PruneManifests(fs walfs.FS, dir string, keep uint64) {
	prune(fs, dir, manifestRec, func(g uint64) bool { return keep == 0 || g != keep })
}

// WriteCatalog atomically persists one generation of the database catalog
// into dir (the database root) on fs. Generation discipline is the
// caller's, as with WriteManifest.
func WriteCatalog(fs walfs.FS, dir string, c *Catalog) error {
	return writeRecord(fs, dir, catalogRec, c.Generation, encodeCatalog(c))
}

// LoadCatalog returns the newest catalog generation in dir that verifies,
// (nil, nil) when dir holds no catalog files, or an error when catalog
// files exist but none verifies or dir cannot be listed — the semantics
// of LoadManifest, for the database root.
func LoadCatalog(fs walfs.FS, dir string) (*Catalog, error) {
	return loadNewest(fs, dir, catalogRec, decodeCatalog)
}

// PruneCatalogs removes every catalog generation other than keep (with
// keep zero: all of them).
func PruneCatalogs(fs walfs.FS, dir string, keep uint64) {
	prune(fs, dir, catalogRec, func(g uint64) bool { return keep == 0 || g != keep })
}
