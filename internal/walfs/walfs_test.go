package walfs

import (
	"errors"
	"path/filepath"
	"testing"
)

// names lists dir's entries.
func names(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := OS.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

func mustRead(t *testing.T, fs FS, path, want string) {
	t.Helper()
	got, err := fs.ReadFile(path)
	if err != nil || string(got) != want {
		t.Fatalf("%s holds %q (err %v), want %q", path, got, err, want)
	}
}

// TestWriteFileReplacesAtomically: WriteFile replaces the contents whole
// and leaves no temp file behind, whether it succeeds or fails.
func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec")
	for _, v := range []string{"first", "second, longer", "3"} {
		if err := OS.WriteFile(path, []byte(v)); err != nil {
			t.Fatal(err)
		}
		mustRead(t, OS, path, v)
		if got := names(t, dir); len(got) != 1 || got[0] != "rec" {
			t.Fatalf("directory holds %v after WriteFile, want [rec]", got)
		}
	}
	// A WriteFile whose rename fails (the target is a non-empty directory)
	// leaves the target as it was and removes its temp file.
	target := filepath.Join(dir, "busy")
	if err := OS.MkdirAll(target); err != nil {
		t.Fatal(err)
	}
	if err := OS.WriteFile(filepath.Join(target, "inner"), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := OS.WriteFile(target, []byte("lost")); err == nil {
		t.Fatal("WriteFile over a non-empty directory succeeded")
	}
	mustRead(t, OS, filepath.Join(target, "inner"), "kept")
	if got := names(t, dir); len(got) != 2 {
		t.Fatalf("directory holds %v after a failed WriteFile, want [busy rec]", got)
	}
}

// TestFailOpFailsExactlyThatCall: FailOp(n) fails call n with no effect —
// the failed WriteFile leaves the old contents — and every call, failed or
// not, is numbered in the op log.
func TestFailOpFailsExactlyThatCall(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec")
	ffs := NewFaultFS()
	ffs.FailOp(3)
	steps := []struct {
		kind string
		call func() error
	}{
		{"mkdirall", func() error { return ffs.MkdirAll(dir) }},
		{"writefile", func() error { return ffs.WriteFile(path, []byte("old")) }},
		{"writefile", func() error { return ffs.WriteFile(path, []byte("new")) }},
		{"readdir", func() error { _, err := ffs.ReadDir(dir); return err }},
		{"readfile", func() error { _, err := ffs.ReadFile(path); return err }},
	}
	for i, s := range steps {
		err := s.call()
		if want := i+1 == 3; errors.Is(err, ErrInjected) != want || (!want && err != nil) {
			t.Fatalf("call %d (%s): err %v", i+1, s.kind, err)
		}
	}
	mustRead(t, OS, path, "old")
	log := ffs.Log()
	if len(log) != len(steps) {
		t.Fatalf("op log has %d entries, want %d: %v", len(log), len(steps), log)
	}
	for i, op := range log {
		if op.N != i+1 || op.Kind != steps[i].kind {
			t.Fatalf("op log entry %d is %+v, want %d %s", i, op, i+1, steps[i].kind)
		}
	}
}

// TestCrashRefusesEveryCall: after Crash every call kind fails with
// ErrCrashed; on disk, a log file keeps only its synced prefix and a
// WriteFile result survives whole.
func TestCrashRefusesEveryCall(t *testing.T) {
	dir := t.TempDir()
	logPath, recPath := filepath.Join(dir, "wal"), filepath.Join(dir, "rec")
	ffs := NewFaultFS()
	f, err := ffs.OpenAppend(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{f.Append([]byte("synced")), f.Sync(), f.Append([]byte("-lost")), ffs.WriteFile(recPath, []byte("record"))} {
		if err != nil {
			t.Fatal(err)
		}
	}
	r, err := ffs.Open(recPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := ffs.Crash(0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	calls := map[string]func() error{
		"openappend":    func() error { _, err := ffs.OpenAppend(logPath); return err },
		"open":          func() error { _, err := ffs.Open(recPath); return err },
		"readfile":      func() error { _, err := ffs.ReadFile(recPath); return err },
		"writefile":     func() error { return ffs.WriteFile(recPath, nil) },
		"readdir":       func() error { _, err := ffs.ReadDir(dir); return err },
		"mkdirall":      func() error { return ffs.MkdirAll(dir) },
		"remove":        func() error { return ffs.Remove(recPath) },
		"append":        func() error { return f.Append(buf) },
		"sync":          f.Sync,
		"truncate":      func() error { return f.Truncate(0) },
		"size":          func() error { _, err := f.Size(); return err },
		"readat":        func() error { _, err := f.ReadAt(buf, 0); return err },
		"reader size":   func() error { _, err := r.Size(); return err },
		"reader readat": func() error { _, err := r.ReadAt(buf, 0); return err },
	}
	for kind, call := range calls {
		if err := call(); !errors.Is(err, ErrCrashed) {
			t.Errorf("%s after Crash: err %v, want ErrCrashed", kind, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close after Crash: %v", err)
	}
	mustRead(t, OS, logPath, "synced")
	mustRead(t, OS, recPath, "record")
	if got := names(t, dir); len(got) != 2 {
		t.Fatalf("directory holds %v, want [rec wal]", got)
	}
}
