package walfs

import (
	"errors"
	"os"
	"sync"
)

// ErrInjected is returned by operations a FaultFS was told to fail.
var ErrInjected = errors.New("walfs: injected fault")

// ErrCrashed is returned by every operation after FaultFS.Crash: the
// simulated machine is down, so nothing further can reach the disk.
var ErrCrashed = errors.New("walfs: simulated crash")

// Op is one call a FaultFS served, as its op log records it.
type Op struct {
	N    int    // 1-based position in the log; FailOp(N) fails this call
	Kind string // the method, lower case: "writefile", "readat", …
	Path string
}

// FaultFS wraps the OS filesystem and injects failures deterministically.
// Every call — of the FS and of the files it opened — passes one gate,
// which numbers it in the op log (Log) in the order the calls run:
//
//   - FailOp(n) makes call n fail with ErrInjected and no effect, whatever
//     its kind; a test enumerates its fault points from a clean run's log.
//   - TearAppend(n, keep) makes the n-th append across all files write
//     only its first keep bytes and fail — a torn write.
//   - FailSync(n) makes the n-th sync fail without syncing — the
//     fsyncgate failure mode, where the durable state becomes unknown.
//   - Crash(keepUnsynced) simulates power loss: every open log file is
//     truncated back to its last-synced length plus at most keepUnsynced
//     bytes of the unsynced suffix (the page-cache prefix a real crash may
//     or may not have flushed), and every later call returns ErrCrashed.
//     WriteFile results are durable when the call returns, so they
//     survive.
//
// Close is not a gated call: it releases a descriptor and never fails by
// injection. Because FaultFS writes through to real files, a crashed image
// can be reopened afterwards with walfs.OS against the same directory —
// exactly what the recovery tests do.
type FaultFS struct {
	mu      sync.Mutex
	files   []*faultFile
	crashed bool
	log     []Op
	failAt  int

	appends, syncs   int // completed-op counters, 1-based injection points
	tearAt, tearKeep int
	failSyncAt       int
}

// NewFaultFS wraps the OS filesystem.
func NewFaultFS() *FaultFS { return &FaultFS{} }

// FailOp makes call n of the op log (1-based) fail with ErrInjected
// without reaching the disk.
func (f *FaultFS) FailOp(n int) {
	f.mu.Lock()
	f.failAt = n
	f.mu.Unlock()
}

// Log returns the calls served so far, in order.
func (f *FaultFS) Log() []Op {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Op(nil), f.log...)
}

// TearAppend makes the n-th Append (1-based, across all files) write only
// its first keep bytes and then fail with ErrInjected.
func (f *FaultFS) TearAppend(n, keep int) {
	f.mu.Lock()
	f.tearAt, f.tearKeep = n, keep
	f.mu.Unlock()
}

// FailSync makes the n-th Sync (1-based, across all files) fail with
// ErrInjected without syncing anything.
func (f *FaultFS) FailSync(n int) {
	f.mu.Lock()
	f.failSyncAt = n
	f.mu.Unlock()
}

// Ops returns the number of completed appends and syncs so far.
func (f *FaultFS) Ops() (appends, syncs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appends, f.syncs
}

// Crash simulates power loss: every open log file is truncated to its
// last-synced length plus at most keepUnsynced bytes of unsynced data, and
// all later operations fail with ErrCrashed. In-flight operations complete
// first (they serialize on the same lock); whether their bytes survive
// depends, as on real hardware, on whether a sync completed before the
// crash. A log file closed before the crash keeps its bytes — one of the
// outcomes a real crash allows.
func (f *FaultFS) Crash(keepUnsynced int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil
	}
	f.crashed = true
	var first error
	for _, ff := range f.files {
		if ff.closed {
			continue
		}
		cut := min(ff.synced+keepUnsynced, ff.size)
		if err := ff.file.Truncate(cut); err != nil && first == nil {
			first = err
		}
		if err := ff.file.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// do serves one call through the gate: after a crash it is refused;
// otherwise it is numbered in the op log and then either fails with
// ErrInjected (the FailOp call) or runs, under the lock, so the log order
// is the order the calls took effect.
func (f *FaultFS) do(kind, path string, call func() error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	f.log = append(f.log, Op{N: len(f.log) + 1, Kind: kind, Path: path})
	if len(f.log) == f.failAt {
		return ErrInjected
	}
	return call()
}

// OpenAppend implements FS.
func (f *FaultFS) OpenAppend(path string) (File, error) {
	var ff *faultFile
	err := f.do("openappend", path, func() error {
		real, err := OS.OpenAppend(path)
		if err != nil {
			return err
		}
		size, err := real.Size()
		if err != nil {
			real.Close()
			return err
		}
		// Existing contents predate this process lifetime: durable by
		// definition.
		ff = &faultFile{faultReader{f, path, real}, real, size, size, false}
		f.files = append(f.files, ff)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ff, nil
}

// Open implements FS.
func (f *FaultFS) Open(path string) (Reader, error) {
	var r Reader
	err := f.do("open", path, func() (err error) {
		r, err = OS.Open(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &faultReader{f, path, r}, nil
}

// ReadFile implements FS.
func (f *FaultFS) ReadFile(path string) (data []byte, err error) {
	err = f.do("readfile", path, func() error {
		data, err = OS.ReadFile(path)
		return err
	})
	return data, err
}

// WriteFile implements FS.
func (f *FaultFS) WriteFile(path string, data []byte) error {
	return f.do("writefile", path, func() error { return OS.WriteFile(path, data) })
}

// ReadDir implements FS.
func (f *FaultFS) ReadDir(dir string) (ents []os.DirEntry, err error) {
	err = f.do("readdir", dir, func() error {
		ents, err = OS.ReadDir(dir)
		return err
	})
	return ents, err
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string) error {
	return f.do("mkdirall", dir, func() error { return OS.MkdirAll(dir) })
}

// Remove implements FS.
func (f *FaultFS) Remove(path string) error {
	return f.do("remove", path, func() error { return OS.Remove(path) })
}

// faultReader is a file FaultFS.Open returned.
type faultReader struct {
	fs   *FaultFS
	path string
	real Reader
}

func (r *faultReader) ReadAt(p []byte, off int64) (n int, err error) {
	err = r.fs.do("readat", r.path, func() error {
		n, err = r.real.ReadAt(p, off)
		return err
	})
	return n, err
}

func (r *faultReader) Size() (size int64, err error) {
	err = r.fs.do("size", r.path, func() error {
		size, err = r.real.Size()
		return err
	})
	return size, err
}

func (r *faultReader) Close() error { return r.real.Close() }

// faultFile is a log file FaultFS.OpenAppend returned; it tracks the
// synced prefix Crash keeps.
type faultFile struct {
	faultReader
	file         File
	size, synced int64
	closed       bool
}

func (ff *faultFile) Append(p []byte) error {
	f := ff.fs
	return f.do("append", ff.path, func() error {
		f.appends++
		if f.tearAt != 0 && f.appends == f.tearAt {
			keep := min(f.tearKeep, len(p))
			if keep > 0 {
				if err := ff.file.Append(p[:keep]); err != nil {
					return err
				}
				ff.size += int64(keep)
			}
			return ErrInjected
		}
		if err := ff.file.Append(p); err != nil {
			return err
		}
		ff.size += int64(len(p))
		return nil
	})
}

func (ff *faultFile) Sync() error {
	f := ff.fs
	return f.do("sync", ff.path, func() error {
		f.syncs++
		if f.failSyncAt != 0 && f.syncs == f.failSyncAt {
			return ErrInjected
		}
		if err := ff.file.Sync(); err != nil {
			return err
		}
		ff.synced = ff.size
		return nil
	})
}

func (ff *faultFile) Truncate(size int64) error {
	return ff.fs.do("truncate", ff.path, func() error {
		if err := ff.file.Truncate(size); err != nil {
			return err
		}
		ff.size = min(ff.size, size)
		ff.synced = min(ff.synced, ff.size)
		return nil
	})
}

func (ff *faultFile) Size() (int64, error) {
	var size int64
	err := ff.fs.do("size", ff.path, func() error {
		size = ff.size
		return nil
	})
	return size, err
}

func (ff *faultFile) Close() error {
	f := ff.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed || ff.closed {
		// Crash already closed the real file.
		return nil
	}
	ff.closed = true
	return ff.file.Close()
}
