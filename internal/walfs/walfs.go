// Package walfs is the engine's one file layer: every file the engine
// touches — the write-ahead logs, the block files of the cold store, the
// manifest and catalog records — is created, read, replaced and removed
// through an FS, and through nothing else. OS is the production
// implementation; FaultFS (fault.go) wraps it to inject faults
// deterministically for the crash tests.
//
// The durability arguments above this layer lean on a few properties, so
// they are the whole interface:
//
//   - Append is the only mutator of a live log file; appended bytes become
//     durable at the next successful Sync, in append order. Truncate
//     discards a suffix (torn tails at recovery, applied records at a
//     checkpoint) and is only called with no appends in flight.
//   - WriteFile replaces a whole file atomically and durably (temp file,
//     fsync, rename, directory fsync): after a crash the path holds the old
//     contents or the new ones, never a mix, and once it returns the new
//     contents survive power loss. Block files and records are written
//     this way and never modified afterwards.
//   - Open, ReadFile and ReadDir serve reloads and recovery; they never
//     change what is on disk.
//
// Keeping the surface this small is what makes the fault model honest:
// FaultFS can fail any single call, tear an append mid-write, fail a sync
// or drop the page cache at a simulated crash — deterministically —
// because every byte the engine reads or writes goes through these calls.
package walfs

import (
	"io"
	"os"
	"path/filepath"
)

// Reader is a file opened for reading.
type Reader interface {
	io.ReaderAt
	io.Closer
	// Size returns the current file size in bytes.
	Size() (int64, error)
}

// File is one write-ahead log file.
type File interface {
	Reader
	// Append writes p at the end of the file. Short or failed writes may
	// leave a torn suffix; the WAL's record framing detects and discards
	// it at recovery.
	Append(p []byte) error
	// Sync makes all appended bytes durable. A failed sync leaves the
	// durable state unknown (some, all or none of the unsynced bytes);
	// callers must treat the writer as poisoned.
	Sync() error
	// Truncate cuts the file to size bytes.
	Truncate(size int64) error
}

// FS is the file layer. Implementations must be safe for concurrent use on
// distinct paths; a single File is serialized by the WAL writer's own
// locking.
type FS interface {
	// OpenAppend opens path for reading and appending, creating it empty
	// when missing. Creation must be durable before the call returns (the
	// OS implementation fsyncs the parent directory): a log file that can
	// vanish at power loss would take every acknowledged write with it.
	OpenAppend(path string) (File, error)
	// Open opens path read-only.
	Open(path string) (Reader, error)
	// ReadFile returns the whole contents of path.
	ReadFile(path string) ([]byte, error)
	// WriteFile atomically and durably replaces path's contents with data.
	// A failed WriteFile leaves path as it was and no temp file behind.
	WriteFile(path string, data []byte) error
	// ReadDir lists dir. A missing dir is an error satisfying
	// errors.Is(err, os.ErrNotExist).
	ReadDir(dir string) ([]os.DirEntry, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Remove deletes path (a file or an empty directory). It does not sync
	// the directory: removals are garbage collection, and a removed file
	// that reappears after a crash is collected again.
	Remove(path string) error
}

// OS is the production filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenAppend(path string) (File, error) {
	_, serr := os.Stat(path)
	created := os.IsNotExist(serr)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if created {
		// A freshly created log file is only durable once its directory
		// entry is: without this fsync a power failure could drop the
		// whole file — and every acknowledged write in it — even though
		// the data syncs succeeded.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &osFile{f: f}, nil
}

func (osFS) Open(path string) (Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return osReader{f}, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		// The rename is durable only once the directory entry is: without
		// this fsync the contents survive power loss but the name may not.
		err = syncDir(dir)
	}
	return err
}

func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Remove(path string) error { return os.Remove(path) }

// syncDir fsyncs a directory so created and renamed entries survive power
// loss, not only process death.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// osReader is a read-only file; Size stats it.
type osReader struct{ *os.File }

func (r osReader) Size() (int64, error) {
	st, err := r.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// osFile appends at a tracked offset rather than O_APPEND so Truncate and
// Append compose predictably (an O_APPEND descriptor ignores the seek
// position, but tracking the end explicitly keeps the write path identical
// to FaultFS's, which the crash tests rely on).
type osFile struct {
	f   *os.File
	end int64
	// endKnown avoids a Stat per append: the end offset is loaded once and
	// maintained by Append/Truncate, which are serialized by the WAL.
	endKnown bool
}

func (w *osFile) loadEnd() error {
	if w.endKnown {
		return nil
	}
	st, err := w.f.Stat()
	if err != nil {
		return err
	}
	w.end = st.Size()
	w.endKnown = true
	return nil
}

func (w *osFile) Append(p []byte) error {
	if err := w.loadEnd(); err != nil {
		return err
	}
	n, err := w.f.WriteAt(p, w.end)
	w.end += int64(n)
	return err
}

func (w *osFile) Sync() error { return w.f.Sync() }

func (w *osFile) Truncate(size int64) error {
	if err := w.f.Truncate(size); err != nil {
		return err
	}
	w.end, w.endKnown = size, true
	return nil
}

func (w *osFile) Size() (int64, error) {
	if err := w.loadEnd(); err != nil {
		return 0, err
	}
	return w.end, nil
}

func (w *osFile) ReadAt(p []byte, off int64) (int, error) { return w.f.ReadAt(p, off) }

func (w *osFile) Close() error { return w.f.Close() }
