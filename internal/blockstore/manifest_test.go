package blockstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"datablocks/internal/types"
	"datablocks/internal/walfs"
)

func sampleManifest(gen uint64) *Manifest {
	return &Manifest{
		Generation: gen,
		SortBy:     2,
		Epoch:      1 << 40,
		WalApplied: []uint64{17, 0, 9},
		Chunks: []ManifestChunk{
			{Handle: 1, Rows: 1024, NumDeleted: 3, Bytes: 4096, Deleted: []uint64{0b1011, 0, 7: 0}},
			{Handle: 9, Rows: 65536, Bytes: 1 << 20},
			{Handle: 2, Rows: 1, NumDeleted: 1, Bytes: 64, Deleted: []uint64{1}},
		},
	}
}

func sampleCatalog(gen uint64) *Catalog {
	return &Catalog{
		Generation: gen,
		Tables: []CatalogTable{
			{
				Name: "events",
				Columns: []types.Column{
					{Name: "id", Kind: types.Int64},
					{Name: "amount", Kind: types.Float64, Nullable: true},
					{Name: "status", Kind: types.String},
				},
				PrimaryKey:   "id",
				ChunkRows:    2048,
				WriteStripes: 4,
				Wal:          true,
			},
			{
				Name:         "nopk",
				Columns:      []types.Column{{Name: "v", Kind: types.String}},
				ChunkRows:    65536,
				WriteStripes: 1,
			},
		},
	}
}

func manifestEqual(t *testing.T, a, b *Manifest) {
	t.Helper()
	if a.Generation != b.Generation || a.SortBy != b.SortBy || a.Epoch != b.Epoch || len(a.Chunks) != len(b.Chunks) ||
		fmt.Sprint(a.WalApplied) != fmt.Sprint(b.WalApplied) {
		t.Fatalf("manifest header diverged: %+v vs %+v", a, b)
	}
	for i := range a.Chunks {
		x, y := a.Chunks[i], b.Chunks[i]
		if x.Handle != y.Handle || x.Rows != y.Rows || x.NumDeleted != y.NumDeleted || x.Bytes != y.Bytes {
			t.Fatalf("chunk %d diverged: %+v vs %+v", i, x, y)
		}
		if len(x.Deleted) != len(y.Deleted) {
			t.Fatalf("chunk %d bitmap length %d vs %d", i, len(x.Deleted), len(y.Deleted))
		}
		for w := range x.Deleted {
			if x.Deleted[w] != y.Deleted[w] {
				t.Fatalf("chunk %d bitmap word %d diverged", i, w)
			}
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleManifest(7)
	if err := WriteManifest(walfs.OS, dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(walfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no manifest loaded")
	}
	manifestEqual(t, want, got)
}

func TestCatalogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleCatalog(3)
	if err := WriteCatalog(walfs.OS, dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCatalog(walfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no catalog loaded")
	}
	if got.Generation != want.Generation || len(got.Tables) != len(want.Tables) {
		t.Fatalf("catalog header diverged: %+v vs %+v", got, want)
	}
	for i := range want.Tables {
		w, g := want.Tables[i], got.Tables[i]
		if w.Name != g.Name || w.PrimaryKey != g.PrimaryKey || w.ChunkRows != g.ChunkRows ||
			w.WriteStripes != g.WriteStripes || w.Wal != g.Wal {
			t.Fatalf("table %d diverged: %+v vs %+v", i, g, w)
		}
		if len(w.Columns) != len(g.Columns) {
			t.Fatalf("table %d column count %d vs %d", i, len(g.Columns), len(w.Columns))
		}
		for j := range w.Columns {
			if w.Columns[j] != g.Columns[j] {
				t.Fatalf("table %d column %d diverged: %+v vs %+v", i, j, g.Columns[j], w.Columns[j])
			}
		}
	}
}

func TestLoadEmptyDirIsNil(t *testing.T) {
	dir := t.TempDir()
	if m, err := LoadManifest(walfs.OS, dir); err != nil || m != nil {
		t.Fatalf("LoadManifest on empty dir = %v, %v", m, err)
	}
	if c, err := LoadCatalog(walfs.OS, dir); err != nil || c != nil {
		t.Fatalf("LoadCatalog on empty dir = %v, %v", c, err)
	}
	if m, err := LoadManifest(walfs.OS, filepath.Join(dir, "missing")); err != nil || m != nil {
		t.Fatalf("LoadManifest on missing dir = %v, %v", m, err)
	}
}

// TestListingErrorIsNotEmpty: a directory listing that fails for any
// reason but a missing directory must fail both loaders. Read as "no
// records", it made recovery treat a table as empty and delete every
// block file its manifest referenced.
func TestListingErrorIsNotEmpty(t *testing.T) {
	dir := t.TempDir()
	if err := WriteManifest(walfs.OS, dir, sampleManifest(1)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCatalog(walfs.OS, dir, sampleCatalog(1)); err != nil {
		t.Fatal(err)
	}
	for _, load := range []func(walfs.FS) (any, error){
		func(fs walfs.FS) (any, error) { return LoadManifest(fs, dir) },
		func(fs walfs.FS) (any, error) { return LoadCatalog(fs, dir) },
	} {
		ffs := walfs.NewFaultFS()
		ffs.FailOp(1)
		v, err := load(ffs)
		if !errors.Is(err, walfs.ErrInjected) {
			t.Fatalf("load with a failed listing = %v, %v; want the listing error", v, err)
		}
		if log := ffs.Log(); len(log) != 1 || log[0].Kind != "readdir" {
			t.Fatalf("op log %v, want the one failed readdir", log)
		}
	}
}

// newestRecord returns the path of the highest-generation record file
// with the given prefix and extension.
func newestRecord(t *testing.T, dir string, k recKind) string {
	t.Helper()
	files := mustGenFiles(t, dir, k)
	if len(files) == 0 {
		t.Fatalf("no %s records in %s", k.name, dir)
	}
	return files[0].path
}

func mustGenFiles(t *testing.T, dir string, k recKind) []genFile {
	t.Helper()
	files, err := genFiles(walfs.OS, dir, k)
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestTornManifestFallsBackToPreviousGeneration is the write-then-chop
// harness: a manifest truncated at every possible length — simulating a
// torn write or a crash mid-flush — must never yield a half state. Load
// returns the previous generation intact (or nothing when no older
// generation survives).
func TestTornManifestFallsBackToPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	prev := sampleManifest(4)
	if err := WriteManifest(walfs.OS, dir, prev); err != nil {
		t.Fatal(err)
	}
	next := sampleManifest(5)
	next.Chunks = append(next.Chunks, ManifestChunk{Handle: 77, Rows: 10, Bytes: 100})
	if err := WriteManifest(walfs.OS, dir, next); err != nil {
		t.Fatal(err)
	}
	newest := newestRecord(t, dir, manifestRec)
	whole, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(whole); cut++ {
		if err = os.WriteFile(newest, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, lerr := LoadManifest(walfs.OS, dir)
		if lerr != nil {
			t.Fatalf("cut %d: %v", cut, lerr)
		}
		if got == nil {
			t.Fatalf("cut %d: previous generation lost", cut)
		}
		if got.Generation != prev.Generation {
			t.Fatalf("cut %d: loaded generation %d, want fallback to %d", cut, got.Generation, prev.Generation)
		}
		manifestEqual(t, prev, got)
	}
	// Restore the whole file: the newest generation wins again.
	if err = os.WriteFile(newest, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(walfs.OS, dir)
	if err != nil || got == nil || got.Generation != next.Generation {
		t.Fatalf("restored newest generation not chosen: %+v, %v", got, err)
	}
}

// TestCorruptManifestPayloadFallsBack flips bits (rather than truncating):
// the checksum must reject the record and the previous generation wins.
func TestCorruptManifestPayloadFallsBack(t *testing.T) {
	dir := t.TempDir()
	prev := sampleManifest(1)
	if err := WriteManifest(walfs.OS, dir, prev); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(walfs.OS, dir, sampleManifest(2)); err != nil {
		t.Fatal(err)
	}
	newest := newestRecord(t, dir, manifestRec)
	whole, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the magic, the version, and two payload positions:
	// each defect must reject the record and fall back cleanly.
	for _, pos := range []int{0, 5, recHdrSize, recHdrSize + 9, len(whole) - 1} {
		buf := append([]byte(nil), whole...)
		buf[pos] ^= 0x40
		if err := os.WriteFile(newest, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadManifest(walfs.OS, dir)
		if err != nil {
			t.Fatalf("corrupt byte %d: %v", pos, err)
		}
		if got == nil || got.Generation != prev.Generation {
			t.Fatalf("corrupt byte %d: want fallback to generation %d, got %+v", pos, prev.Generation, got)
		}
		manifestEqual(t, prev, got)
	}
}

// TestAllGenerationsCorruptIsAnError: when record files exist but none
// verifies, loading must fail loudly — a silent "no manifest" would let
// recovery garbage-collect intact block files and destroy data that was
// merely missing its metadata.
func TestAllGenerationsCorruptIsAnError(t *testing.T) {
	dir := t.TempDir()
	if err := WriteManifest(walfs.OS, dir, sampleManifest(1)); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(walfs.OS, dir, sampleManifest(2)); err != nil {
		t.Fatal(err)
	}
	for _, f := range mustGenFiles(t, dir, manifestRec) {
		if err := os.Truncate(f.path, 7); err != nil {
			t.Fatal(err)
		}
	}
	if m, err := LoadManifest(walfs.OS, dir); err == nil {
		t.Fatalf("all-corrupt manifests loaded as %+v, want an error", m)
	}
	if err := WriteCatalog(walfs.OS, dir, sampleCatalog(1)); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newestRecord(t, dir, catalogRec), 3); err != nil {
		t.Fatal(err)
	}
	if c, err := LoadCatalog(walfs.OS, dir); err == nil {
		t.Fatalf("all-corrupt catalog loaded as %+v, want an error", c)
	}
}

func TestPruneRecords(t *testing.T) {
	dir := t.TempDir()
	for gen := uint64(1); gen <= 5; gen++ {
		m := sampleManifest(gen)
		if err := WriteManifest(walfs.OS, dir, m); err != nil {
			t.Fatal(err)
		}
	}
	// WriteManifest keeps the current and previous generation only.
	files := mustGenFiles(t, dir, manifestRec)
	if len(files) != 2 || files[0].gen != 5 || files[1].gen != 4 {
		t.Fatalf("after 5 writes: %+v", files)
	}
	PruneManifests(walfs.OS, dir, 5)
	files = mustGenFiles(t, dir, manifestRec)
	if len(files) != 1 || files[0].gen != 5 {
		t.Fatalf("after prune-to-5: %+v", files)
	}
	PruneManifests(walfs.OS, dir, 0)
	if files = mustGenFiles(t, dir, manifestRec); len(files) != 0 {
		t.Fatalf("after prune-all: %+v", files)
	}
}

func TestStoreRetain(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	blk := testBlock(t, 64, 0)
	var handles []Handle
	for i := 0; i < 4; i++ {
		h, perr := s.Put(blk)
		if perr != nil {
			t.Fatal(perr)
		}
		handles = append(handles, h)
	}
	// A stray temp file from an interrupted write must be cleared too.
	if err = os.WriteFile(filepath.Join(dir, "put-123.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	keep := map[Handle]bool{handles[1]: true, handles[3]: true}
	removed, err := s.Retain(keep)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed %d blocks, want 2", removed)
	}
	left := s.handlesByID()
	if len(left) != 2 || left[0] != handles[1] || left[1] != handles[3] {
		t.Fatalf("surviving handles %v", left)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d files left on disk, want the 2 kept blocks", len(entries))
	}
	// Retain(nil) clears the store.
	if _, err := s.Retain(nil); err != nil {
		t.Fatal(err)
	}
	if got := s.handlesByID(); len(got) != 0 {
		t.Fatalf("handles after Retain(nil): %v", got)
	}
}
