// Package blockstore implements the cold block store: frozen Data Blocks
// are serialized to secondary storage (Store) so their compressed payload
// can be dropped from RAM, and a byte-budgeted residency cache (Cache)
// decides — coldest first, by observed access — which resident blocks to
// evict when a table exceeds its memory budget.
//
// This is the paper's eviction story made concrete (§1: "cold data can be
// evicted to secondary storage" while staying query-able): the storage
// layer keeps serving scans and O(1) point accesses out of evicted chunks
// by transparently reloading their blocks through this package, and the
// temperature-driven placement follows the compaction/storage-advisor line
// of work — placement tracks observed access, not just chunk age.
//
// The Store is a flat directory of self-contained block files, one per
// block, written atomically (walfs.FS.WriteFile) and read back by
// attribute: a block's header and directory (ReadDirectory) say where each
// attribute's sections are, LoadAttrs fetches the ones a reader asks for,
// and the serialized format's per-attribute CRC32-C verifies exactly what
// was read. It stores payload bytes only; which chunk a handle belongs to is the owner's (the relation's)
// bookkeeping, exactly like the paper's blocks, which carry no schema.
//
// Every file the package touches — block files and the records below — is
// reached through the walfs.FS the store or the record function is given,
// so the crash tests inject faults into each call (walfs.FaultFS).
//
// # Durability and garbage collection
//
// The package also defines the durable metadata records that make a store
// directory a restart-recoverable database image (see manifest.go): a
// CRC-protected, generation-stamped catalog (table registry, database
// root) and per-table manifest (frozen chunk sequence, block directory).
// The contract:
//
//   - A block file is durable the moment Put returns (fsync before
//     rename), but it is *reachable* only once a manifest generation
//     references its handle. Writers therefore order: put blocks first,
//     write the manifest second.
//   - Record writes are atomic and keep the previous generation as a
//     fallback; loaders pick the newest generation that verifies, so a
//     torn write reads as the previous generation, never a half state.
//   - At recovery, block files not referenced by the surviving manifest
//     generation are garbage — a crash between Put and the manifest
//     write, or a superseded generation — and must be removed with
//     Retain, passing the manifest's handle set. A store that was never
//     given a manifest (a pure spill cache) is cleared the same way with
//     an empty handle set when its owner is done with it.
//
// Error discipline is machine-checked: the dbvet errcheckdb analyzer
// (internal/analysis, run by `make lint`) refuses a discarded error from
// Put, ReadDirectory, LoadAttrs, Load, Retain or the catalog/manifest
// write/load functions — a dropped error here is a cold block silently
// treated as resident. See ARCHITECTURE.md, "Enforced invariants".
package blockstore

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"datablocks/internal/core"
	"datablocks/internal/types"
	"datablocks/internal/walfs"
)

// Handle identifies one stored block within its Store. The zero Handle
// means "not stored".
type Handle uint64

// blockExt is the on-disk suffix of one serialized block.
const blockExt = ".dblk"

// Store is a disk-backed store of serialized frozen blocks. It is safe
// for concurrent use: Put and Load run without a lock (each handle maps
// to its own file), only handle allocation is serialized.
type Store struct {
	fs   walfs.FS
	dir  string
	next atomic.Uint64

	mu    sync.Mutex
	sizes map[Handle]int64 // on-disk bytes per stored block

	puts, loads         atomic.Int64
	bytesOut, bytesIn   atomic.Int64
	removed, loadErrors atomic.Int64
}

// StoreStats summarizes a store's traffic and footprint.
type StoreStats struct {
	Puts, Loads, Removes int64
	LoadErrors           int64
	BytesWritten         int64
	BytesRead            int64
	Blocks               int
	DiskBytes            int64
}

// Open opens a block store rooted at dir on the OS filesystem.
func Open(dir string) (*Store, error) { return OpenFS(walfs.OS, dir) }

// OpenFS creates (or reopens) a block store rooted at dir on fs. Reopening
// a directory that already holds block files resumes handle allocation
// past the existing ones, so new blocks never clobber old files.
func OpenFS(fs walfs.FS, dir string) (*Store, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	s := &Store{fs: fs, dir: dir, sizes: make(map[Handle]int64)}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	var max uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, blockExt) {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(name, blockExt), 10, 64)
		if err != nil {
			continue
		}
		if info, err := e.Info(); err == nil {
			s.sizes[Handle(id)] = info.Size()
		}
		if id > max {
			max = id
		}
	}
	s.next.Store(max)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// FS returns the file layer the store reads and writes through.
func (s *Store) FS() walfs.FS { return s.fs }

func (s *Store) path(h Handle) string {
	return filepath.Join(s.dir, fmt.Sprintf("%012d%s", uint64(h), blockExt))
}

// Put serializes the block and writes it to the store atomically
// (walfs.FS.WriteFile), returning the handle that reloads it.
func (s *Store) Put(blk *core.Block) (Handle, error) {
	buf, err := blk.MarshalBinary()
	if err != nil {
		return 0, fmt.Errorf("blockstore: marshal: %w", err)
	}
	h := Handle(s.next.Add(1))
	if err := s.fs.WriteFile(s.path(h), buf); err != nil {
		return 0, fmt.Errorf("blockstore: put block %d: %w", h, err)
	}
	s.mu.Lock()
	s.sizes[h] = int64(len(buf))
	s.mu.Unlock()
	s.puts.Add(1)
	s.bytesOut.Add(int64(len(buf)))
	return h, nil
}

// open opens block h's file for reading.
func (s *Store) open(h Handle) (walfs.Reader, error) {
	if h == 0 {
		return nil, fmt.Errorf("blockstore: load of zero handle")
	}
	f, err := s.fs.Open(s.path(h))
	if err != nil {
		s.loadErrors.Add(1)
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	return f, nil
}

// ReadDirectory reads and verifies the header and attribute directory of a
// stored block — the part that stays in RAM while the payload does not;
// kinds supplies the schema the serialized block does not carry.
func (s *Store) ReadDirectory(h Handle, kinds []types.Kind) (*core.Directory, error) {
	f, err := s.open(h)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, core.DirectorySize(len(kinds)))
	_, err = f.ReadAt(buf, 0)
	var d *core.Directory
	if err == nil {
		d, err = core.ParseDirectory(buf, kinds)
	}
	if err == nil {
		// A file shorter than its header claims fails here, once, rather
		// than as a short read (behind a section-sized allocation) later.
		var size int64
		if size, err = f.Size(); err == nil && size != int64(d.BlockSize()) {
			err = fmt.Errorf("file is %d bytes, header says %d", size, d.BlockSize())
		}
	}
	if err != nil {
		s.loadErrors.Add(1)
		return nil, fmt.Errorf("blockstore: block %d: directory: %w", h, err)
	}
	s.bytesIn.Add(int64(len(buf)))
	return d, nil
}

// LoadAttrs returns a block holding what have holds (nil: nothing) plus the
// attributes listed in cols (nil: all of them), reading only the sections
// of listed attributes that have lacks — adjacent ones in one read — and
// verifying each attribute's checksum and structure. d is the block's
// directory (ReadDirectory). A missing file, a short read or corruption of
// a requested attribute surfaces as an error — never as a block with wrong
// contents; damage confined to attributes that are not read goes unnoticed
// until a load asks for them. The second result is the number of bytes
// read.
func (s *Store) LoadAttrs(h Handle, d *core.Directory, have *core.Block, cols []int) (*core.Block, int, error) {
	f, err := s.open(h)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	blk, n, err := d.Load(f, have, cols)
	if err != nil {
		s.loadErrors.Add(1)
		return nil, 0, fmt.Errorf("blockstore: block %d: %w", h, err)
	}
	if n > 0 { // a load of attributes that were all resident (or of none) reads nothing
		s.loads.Add(1)
		s.bytesIn.Add(int64(n))
	}
	return blk, n, nil
}

// Load reads a whole stored block back into memory: the directory, then
// every attribute in one read.
func (s *Store) Load(h Handle, kinds []types.Kind) (*core.Block, error) {
	d, err := s.ReadDirectory(h, kinds)
	if err != nil {
		return nil, err
	}
	blk, _, err := s.LoadAttrs(h, d, nil, nil)
	return blk, err
}

// Retain removes every stored block whose handle is not in keep — the
// manifest-driven garbage collection — plus stray temp files left by
// interrupted writes. With an empty (or nil) keep set it clears the store
// entirely. It returns the number of block files removed.
func (s *Store) Retain(keep map[Handle]bool) (int, error) {
	removed := 0
	for _, h := range s.handlesByID() {
		if keep[h] {
			continue
		}
		if err := s.Remove(h); err != nil {
			return removed, err
		}
		removed++
	}
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return removed, fmt.Errorf("blockstore: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			s.fs.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	return removed, nil
}

// Remove deletes a stored block.
func (s *Store) Remove(h Handle) error {
	if err := s.fs.Remove(s.path(h)); err != nil {
		return fmt.Errorf("blockstore: %w", err)
	}
	s.mu.Lock()
	delete(s.sizes, h)
	s.mu.Unlock()
	s.removed.Add(1)
	return nil
}

// Stats returns a snapshot of the store's counters and footprint.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	blocks, disk := len(s.sizes), int64(0)
	for _, b := range s.sizes {
		disk += b
	}
	s.mu.Unlock()
	return StoreStats{
		Puts:         s.puts.Load(),
		Loads:        s.loads.Load(),
		Removes:      s.removed.Load(),
		LoadErrors:   s.loadErrors.Load(),
		BytesWritten: s.bytesOut.Load(),
		BytesRead:    s.bytesIn.Load(),
		Blocks:       blocks,
		DiskBytes:    disk,
	}
}

// Close is the store's lifecycle hook. Block files are each synced at
// Put time, so there is nothing to flush, and the store deliberately
// stays readable afterwards — DB.Close closes its store yet evicted
// chunks keep reloading through it. A future write-behind store would
// drain here.
func (s *Store) Close() error { return nil }

// handlesByID returns the stored handles in ascending order (test helper
// and future recovery hook).
func (s *Store) handlesByID() []Handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	hs := make([]Handle, 0, len(s.sizes))
	for h := range s.sizes {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}
