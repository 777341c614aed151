package datablocks

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// durableOpts are the runtime options the durable tests reopen with; the
// structural options (schema, PK, chunk size) come back from the catalog.
func durableOpts() []TableOption {
	return []TableOption{WithAutoFreeze(1), WithMemoryBudget(32 << 10), WithChunkRows(512)}
}

func mustCreateEvents(t *testing.T, db *DB) *Table {
	t.Helper()
	tbl, err := db.CreateTable("events", []Column{
		{Name: "id", Kind: Int64},
		{Name: "amount", Kind: Float64},
		{Name: "status", Kind: String},
	}, WithPrimaryKey("id"))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func loadEvents(t *testing.T, tbl *Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(Row{Int(int64(i)), Float(float64(i) / 2), Str("new")}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableReopen is the create → close → reopen → query regression:
// aggregates, point lookups, deletes and the last committed update must
// survive the restart exactly. The reopen also garbage-collects a block
// file no manifest references (a write a crash orphaned), restores the
// frozen chunks evicted with none hot, and answers out of the block store
// (the subtest, which carries the checks of the retired restart experiment).
func TestDurableReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustCreateEvents(t, db)
	const n = 5000
	loadEvents(t, tbl, n)
	for i := 0; i < n; i += 13 {
		if ok, derr := tbl.Delete(int64(i)); derr != nil || !ok {
			t.Fatalf("delete %d failed: %v %v", i, ok, derr)
		}
	}
	if err = tbl.Update(5, Row{Int(5), Float(99), Str("updated")}); err != nil {
		t.Fatal(err)
	}
	wantRows := tbl.NumRows()
	if err = db.Close(); err != nil {
		t.Fatal(err)
	}
	tableDir := filepath.Join(dir, "events")
	orphan := filepath.Join(tableDir, "999999999999.dblk")
	buf, err := os.ReadFile(newestFile(t, filepath.Join(tableDir, "*.dblk")))
	if err != nil {
		t.Fatal(err)
	}
	if err = os.WriteFile(orphan, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenPath(dir, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2 := db2.Table("events")
	if tbl2 == nil {
		t.Fatalf("table not recovered; catalog lists %v", db2.Tables())
	}
	t.Run("gc-orphans-and-reload-evicted", func(t *testing.T) {
		if _, serr := os.Stat(orphan); !os.IsNotExist(serr) {
			t.Fatalf("unreferenced block file survived reopen (stat: %v)", serr)
		}
		if manifests, _ := filepath.Glob(filepath.Join(tableDir, "manifest-*.dbm")); len(manifests) != 1 {
			t.Fatalf("want exactly the surviving manifest generation, found %v", manifests)
		}
		if m := tbl2.Metrics().Mem; m.EvictedChunks == 0 || m.HotChunks != 0 {
			t.Fatalf("recovered table should hold evicted chunks and no hot ones: %d evicted, %d frozen, %d hot",
				m.EvictedChunks, m.FrozenChunks, m.HotChunks)
		}
		res, err := tbl2.Scan([]string{"id"}, []Pred{{Col: "id", Op: Ge, Lo: Int(0)}}, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != wantRows {
			t.Fatalf("scan found %d rows, want %d", res.NumRows(), wantRows)
		}
		if r := tbl2.Metrics().Cold.Reloads; r == 0 {
			t.Fatal("reopened table answered without reloading any block")
		}
	})
	if got := tbl2.NumRows(); got != wantRows {
		t.Fatalf("recovered %d rows, want %d", got, wantRows)
	}
	if tbl2.Schema().ColumnIndex("status") != 2 {
		t.Fatal("schema not recovered from catalog")
	}
	if row, ok := tbl2.Lookup(5); !ok || row[1].Float() != 99 || row[2].Str() != "updated" {
		t.Fatalf("updated row lost: %v, %v", row, ok)
	}
	if _, ok := tbl2.Lookup(13); ok {
		t.Fatal("deleted key 13 resurrected")
	}
	res, err := tbl2.Scan([]string{"id"}, []Pred{{Col: "id", Op: Ge, Lo: Int(0)}}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != wantRows {
		t.Fatalf("scan found %d rows, want %d", res.NumRows(), wantRows)
	}
	// The reopened table keeps working as a normal table: inserts land in
	// a fresh hot tail and are visible immediately.
	if _, err := tbl2.Insert(Row{Int(n + 1), Float(1), Str("post")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl2.Lookup(n + 1); !ok {
		t.Fatal("post-reopen insert not visible")
	}
}

// chopFile truncates path to frac of its size, simulating a torn write.
func chopFile(t *testing.T, path string, frac float64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(float64(info.Size())*frac)); err != nil {
		t.Fatal(err)
	}
}

// newestFile returns the lexically greatest path matching the pattern —
// for generation-stamped records (fixed-width hex) that is the newest
// generation.
func newestFile(t *testing.T, pattern string) string {
	t.Helper()
	matches, err := filepath.Glob(pattern)
	if err != nil || len(matches) == 0 {
		t.Fatalf("no files match %s (err %v)", pattern, err)
	}
	newest := matches[0]
	for _, m := range matches[1:] {
		if m > newest {
			newest = m
		}
	}
	return newest
}

// TestTornManifestRecoversPreviousGeneration: two closes produce two
// manifest generations; chopping the newest one mid-file must reopen to
// the first close's contents — never a half state, never an error.
func TestTornManifestRecoversPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustCreateEvents(t, db)
	loadEvents(t, tbl, 2000)
	if err = db.Close(); err != nil {
		t.Fatal(err)
	}

	// Session two adds more rows and closes again (a newer generation).
	// No auto-freeze here: background freezes checkpoint intermediate
	// manifest generations, and this test needs "previous generation" to
	// mean exactly the first close.
	db2, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl2 := db2.Table("events")
	rowsAtFirstClose := tbl2.NumRows()
	for i := 0; i < 1000; i++ {
		if _, err = tbl2.Insert(Row{Int(int64(100_000 + i)), Float(1), Str("late")}); err != nil {
			t.Fatal(err)
		}
	}
	if err = db2.Close(); err != nil {
		t.Fatal(err)
	}

	chopFile(t, newestFile(t, filepath.Join(dir, "events", "manifest-*.dbm")), 0.5)

	db3, err := OpenPath(dir)
	if err != nil {
		t.Fatalf("reopen after torn manifest: %v", err)
	}
	defer db3.Close()
	tbl3 := db3.Table("events")
	if tbl3 == nil {
		t.Fatal("table lost after torn manifest")
	}
	if got := tbl3.NumRows(); got != rowsAtFirstClose {
		t.Fatalf("recovered %d rows, want the previous generation's %d", got, rowsAtFirstClose)
	}
	if _, ok := tbl3.Lookup(100_000); ok {
		t.Fatal("row from the torn generation leaked into the recovery")
	}
	if row, ok := tbl3.Lookup(42); !ok || row[0].Int() != 42 {
		t.Fatalf("previous generation's row lost: %v, %v", row, ok)
	}
}

// TestTornCatalogRecoversPreviousGeneration: creating a second table
// writes a newer catalog generation; chopping it must fall back to the
// generation that knew only the first table.
func TestTornCatalogRecoversPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	tblA := mustCreateEvents(t, db)
	loadEvents(t, tblA, 600)
	if err = tblA.FreezeAll(); err != nil {
		t.Fatal(err)
	}
	if _, err = db.CreateTable("second", []Column{{Name: "v", Kind: Int64}}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash right after the second create: no Close, chop the
	// newest catalog generation (the one listing both tables).
	chopFile(t, newestFile(t, filepath.Join(dir, "catalog-*.dbc")), 0.3)

	db2, err := OpenPath(dir)
	if err != nil {
		t.Fatalf("reopen after torn catalog: %v", err)
	}
	defer db2.Close()
	if got := db2.Tables(); len(got) != 1 || got[0] != "events" {
		t.Fatalf("want the previous generation's table set [events], got %v", got)
	}
	if got := db2.Table("events").NumRows(); got != 600 {
		t.Fatalf("recovered %d rows, want 600", got)
	}
}

// TestAllManifestsCorruptRefusesAndKeepsBlocks: when every manifest
// generation of a table is corrupt, reopen must fail — and must not
// garbage-collect the (intact, self-checksummed) block files as
// unreferenced, so the data stays salvageable.
func TestAllManifestsCorruptRefusesAndKeepsBlocks(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustCreateEvents(t, db)
	loadEvents(t, tbl, 2000)
	if err = db.Close(); err != nil {
		t.Fatal(err)
	}
	manifests, err := filepath.Glob(filepath.Join(dir, "events", "manifest-*.dbm"))
	if err != nil || len(manifests) == 0 {
		t.Fatalf("no manifests after close (err %v)", err)
	}
	for _, m := range manifests {
		if err := os.Truncate(m, 9); err != nil {
			t.Fatal(err)
		}
	}
	blocksBefore, _ := filepath.Glob(filepath.Join(dir, "events", "*.dblk"))
	if _, err := OpenPath(dir, durableOpts()...); err == nil {
		t.Fatal("reopen with all manifests corrupt succeeded")
	}
	blocksAfter, _ := filepath.Glob(filepath.Join(dir, "events", "*.dblk"))
	if len(blocksAfter) != len(blocksBefore) || len(blocksAfter) == 0 {
		t.Fatalf("block files not preserved for salvage: %d before, %d after", len(blocksBefore), len(blocksAfter))
	}
}

// TestVersion1RecordsAreRefused: record format 2 made the WAL fields
// ordinary fields of every catalog and manifest and dropped the version-1
// decoder. A directory whose catalog or manifest generations are all
// version 1 must fail to open with an error naming the version — never
// open as an empty database — and must keep every block file.
func TestVersion1RecordsAreRefused(t *testing.T) {
	for _, pattern := range []string{"catalog-*.dbc", filepath.Join("events", "manifest-*.dbm")} {
		t.Run(filepath.Base(pattern), func(t *testing.T) {
			dir := t.TempDir()
			db, err := OpenPath(dir)
			if err != nil {
				t.Fatal(err)
			}
			loadEvents(t, mustCreateEvents(t, db), 2000)
			if err = db.Close(); err != nil {
				t.Fatal(err)
			}
			records, err := filepath.Glob(filepath.Join(dir, pattern))
			if err != nil || len(records) == 0 {
				t.Fatalf("no %s records after close (err %v)", pattern, err)
			}
			for _, r := range records {
				buf, err := os.ReadFile(r)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint32(buf[4:], 1) // the header's version field
				if err = os.WriteFile(r, buf, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			blocksBefore, _ := filepath.Glob(filepath.Join(dir, "events", "*.dblk"))
			if db2, err := OpenPath(dir); err == nil || !strings.Contains(err.Error(), "version 1") {
				t.Fatalf("open over version-1 %s records: db %v, err %v; want an error naming version 1", pattern, db2, err)
			}
			blocksAfter, _ := filepath.Glob(filepath.Join(dir, "events", "*.dblk"))
			if len(blocksAfter) != len(blocksBefore) || len(blocksAfter) == 0 {
				t.Fatalf("block files not preserved: %d before, %d after", len(blocksBefore), len(blocksAfter))
			}
		})
	}
}

// TestRecoveredTableIgnoresPrimaryKeyDefault: a DB-wide WithPrimaryKey
// default must not graft an index onto a recovered table that was created
// without one — the catalog's structural record wins.
func TestRecoveredTableIgnoresPrimaryKeyDefault(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	// "v" holds duplicate values: a spurious PK rebuild over it would fail.
	tbl, err := db.CreateTable("nopk", []Column{{Name: "v", Kind: Int64}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err = tbl.Insert(Row{Int(int64(i % 5))}); err != nil {
			t.Fatal(err)
		}
	}
	if err = db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenPath(dir, WithPrimaryKey("v"))
	if err != nil {
		t.Fatalf("reopen with a PK default grafted an index onto a PK-less table: %v", err)
	}
	defer db2.Close()
	if got := db2.Table("nopk").NumRows(); got != 100 {
		t.Fatalf("recovered %d rows, want 100", got)
	}
	if _, ok := db2.Table("nopk").Lookup(1); ok {
		t.Fatal("recovered PK-less table answered an indexed lookup")
	}
}

// TestCorruptBlockSurfacesLoadError: a bit flipped in a stored block must
// make reopen fail with a checksum error — wrong results are never an
// option. (The PK index rebuild streams every block at reopen, so the
// corruption is caught before the first query.)
func TestCorruptBlockSurfacesLoadError(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	tbl := mustCreateEvents(t, db)
	loadEvents(t, tbl, 2000)
	if err = db.Close(); err != nil {
		t.Fatal(err)
	}
	victim := newestFile(t, filepath.Join(dir, "events", "*.dblk"))
	buf, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x01
	if err = os.WriteFile(victim, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenPath(dir, durableOpts()...)
	if err == nil {
		t.Fatal("reopen with a corrupt block succeeded")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption not reported as a checksum failure: %v", err)
	}
}

// TestDBCloseRemovesUnpersistedStore: a table whose block store is a pure
// spill cache (Open + WithBlockStore, not OpenPath) must leave no block
// files behind after DB.Close — and must stay fully readable, because the
// evicted blocks are reloaded into RAM before the files go away.
func TestDBCloseRemovesUnpersistedStore(t *testing.T) {
	root := t.TempDir()
	db := Open(WithBlockStore(root), WithMemoryBudget(8<<10), WithAutoFreeze(1), WithChunkRows(512))
	tbl := mustCreateEvents(t, db)
	loadEvents(t, tbl, 4000)
	if err := tbl.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	blocks, err := filepath.Glob(filepath.Join(root, "events", "*.dblk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 0 {
		t.Fatalf("%d spill-cache block files survived DB.Close", len(blocks))
	}
	if st := tbl.Stats(); st.EvictedChunks != 0 {
		t.Fatalf("%d chunks still evicted after the spill cache was dropped", st.EvictedChunks)
	}
	// The table remains answerable from RAM.
	if row, ok := tbl.Lookup(123); !ok || row[0].Int() != 123 {
		t.Fatalf("lookup after close = %v, %v", row, ok)
	}
	res, err := tbl.Scan([]string{"id"}, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != tbl.NumRows() {
		t.Fatalf("scan after close found %d of %d rows", res.NumRows(), tbl.NumRows())
	}
}
