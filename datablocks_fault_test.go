package datablocks

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"datablocks/internal/walfs"
)

// faultOutcome is one state a key may recover to: present with value v,
// or absent.
type faultOutcome struct {
	present bool
	v       int64
}

// faultModel maps every key the fault script wrote to the outcomes
// recovery may show: [0] is its last acknowledged state, and a second
// entry, if any, is the attempt that failed.
type faultModel map[int64][]faultOutcome

// faultScript runs one deterministic history through fs on dir: create a
// WAL table with a primary key → BulkLoad → FreezeAll → evict chunk 0 → a
// scan that reloads it → insert, update of a frozen row, delete → Close.
// One write stripe, one scan worker and no background goroutine keep the
// sequence of file calls the same on every run. The script stops at the
// first error; the model then holds that attempt as a second outcome.
func faultScript(fs walfs.FS, dir string) (faultModel, error) {
	m := faultModel{}
	try := func(want map[int64]faultOutcome, op func() error) error {
		err := op()
		for k, o := range want {
			if err == nil {
				m[k] = []faultOutcome{o}
			} else {
				m[k] = append(m[k], o)
			}
		}
		return err
	}
	db, err := openPath(fs, dir, WithParallelism(1))
	if err != nil {
		return m, err
	}
	tbl, err := db.CreateTable("t", []Column{{Name: "id", Kind: Int64}, {Name: "v", Kind: Int64}},
		WithPrimaryKey("id"), WithWAL(), WithChunkRows(64))
	if err != nil {
		return m, err
	}
	const n = 150
	ids, vs := make([]int64, n), make([]int64, n)
	loaded := make(map[int64]faultOutcome, n)
	for i := range ids {
		ids[i], vs[i] = int64(i), int64(i)*10
		m[ids[i]] = []faultOutcome{{}}
		loaded[ids[i]] = faultOutcome{true, vs[i]}
	}
	m[1000] = []faultOutcome{{}}
	steps := []func() error{
		func() error {
			return try(loaded, func() error { return tbl.BulkLoad([]ColumnData{{Kind: Int64, Ints: ids}, {Kind: Int64, Ints: vs}}, n) })
		},
		tbl.FreezeAll,
		func() error { _, err := tbl.rel.EvictChunk(0); return err },
		func() error { _, err := tbl.Scan([]string{"id", "v"}, nil, QueryOptions{}); return err },
		func() error {
			return try(map[int64]faultOutcome{1000: {true, 1}}, func() error { _, err := tbl.Insert(Row{Int(1000), Int(1)}); return err })
		},
		func() error {
			return try(map[int64]faultOutcome{5: {true, 5000}}, func() error { return tbl.Update(5, Row{Int(5), Int(5000)}) })
		},
		func() error {
			return try(map[int64]faultOutcome{7: {}}, func() error {
				ok, err := tbl.Delete(7)
				if err == nil && !ok {
					err = errors.New("delete 7: key not found")
				}
				return err
			})
		},
		db.Close,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return m, err
		}
	}
	return m, nil
}

// checkRecovered reopens dir on the OS filesystem and checks that every
// key of m holds one of its legal outcomes and that no other row exists.
func checkRecovered(t *testing.T, what, dir string, m faultModel) {
	t.Helper()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Errorf("%s: close after reopen: %v", what, err)
		}
	}()
	tbl := db.Table("t")
	present := 0
	for k, legal := range m {
		var got faultOutcome
		if tbl != nil {
			var row Row
			if row, got.present = tbl.Lookup(k); got.present {
				got.v = row[1].Int()
				present++
			}
		}
		if !slices.Contains(legal, got) {
			t.Fatalf("%s: key %d recovered as %+v, legal outcomes %+v", what, k, got, legal)
		}
	}
	if tbl != nil && tbl.NumRows() != present {
		t.Fatalf("%s: %d rows recovered, %d of them keys the script wrote", what, tbl.NumRows(), present)
	}
}

// opName names op n of a log taken on dir, for comparison across runs on
// different directories and for failure messages.
func opName(log []walfs.Op, dir string, n int) string {
	if n > len(log) {
		return fmt.Sprintf("op %d (none)", n)
	}
	path, _ := filepath.Rel(dir, log[n-1].Path)
	return fmt.Sprintf("op %d (%s %s)", n, log[n-1].Kind, path)
}

// TestFileFaultMatrix fails every file call the engine makes, one at a
// time, enumerated from the op log of a clean run — so a new I/O site is
// covered without editing the test. Phase 1 reruns the fault script with
// call n failing, crashes the filesystem (every unsynced byte is lost) and
// reopens on the OS filesystem: every acknowledged row must be there with
// its value, and a key whose last write failed may hold only that
// attempt or its last acknowledged state. Phase 2 fails each call of a
// reopen of the clean image in turn: the reopen may fail, but the next
// clean reopen must show every row.
func TestFileFaultMatrix(t *testing.T) {
	image := t.TempDir()
	clean := walfs.NewFaultFS()
	final, err := faultScript(clean, image)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	ops := clean.Log()
	for n := 1; n <= len(ops); n++ {
		dir := t.TempDir()
		ffs := walfs.NewFaultFS()
		ffs.FailOp(n)
		m, serr := faultScript(ffs, dir)
		name := opName(ops, image, n)
		if got := opName(ffs.Log(), dir, n); got != name {
			t.Fatalf("%s in the clean run, %s in this one: the calls diverged", name, got)
		}
		if serr != nil && !errors.Is(serr, walfs.ErrInjected) {
			t.Fatalf("%s: script failed with %v, not the injected fault", name, serr)
		}
		if err := ffs.Crash(0); err != nil {
			t.Fatal(err)
		}
		checkRecovered(t, fmt.Sprintf("%s, script error %v", name, serr), dir, m)
	}

	probe := t.TempDir()
	copyTree(t, image, probe)
	reopen := walfs.NewFaultFS()
	if _, err := openPath(reopen, probe); err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	ropens := reopen.Log()
	if err := reopen.Crash(0); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= len(ropens); n++ {
		dir := t.TempDir()
		copyTree(t, image, dir)
		ffs := walfs.NewFaultFS()
		ffs.FailOp(n)
		_, oerr := openPath(ffs, dir)
		if err := ffs.Crash(0); err != nil {
			t.Fatal(err)
		}
		checkRecovered(t, fmt.Sprintf("reopen %s, open error %v", opName(ropens, probe, n), oerr), dir, final)
	}
	t.Logf("%d script ops, %d reopen ops", len(ops), len(ropens))
}
