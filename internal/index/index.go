// Package index provides the traditional global index structure the paper
// contrasts with SMA/PSMA-narrowed scans in Table 3: a unique hash index
// from an integer primary key to a stable tuple identifier.
//
// Layout: 64 lock-striped shards, each one open-addressing table of
// 16-byte slots — the key and the packed tuple identifier side by side, so
// a lookup touches one cache line — probed linearly, doubled at 7/8 load
// and deleted from by backward shift (no tombstones). A key costs 18–37
// bytes depending on where the table stands between two doublings, not
// the ~90 of a Go map of version records.
//
// A slot holds the current version only. The one other thing the update
// protocol needs — the previous tuple identifier of a key whose update is
// in flight — lives in a per-shard side table from Publish until Seal
// (or Unpublish/Repoint/Delete), under the same shard lock. Together with
// the storage layer's epoch-aware point reads this closes the
// update/lookup read anomaly: a reader that resolves a key mid-update
// falls back from the current (not-yet-born) version to the previous one,
// and a reader that finds a not-yet-born version with no previous one
// recorded (the update sealed after the reader took its epoch) retries at
// a fresh epoch, so a key that exists at all times never transiently
// misses.
//
// The index is maintained across inserts, deletes and (unsorted) freezes;
// Table 3's "no index" configurations simply bypass it and fall back to
// scans.
package index

import (
	"fmt"
	"sync"

	"datablocks/internal/obs"
	"datablocks/internal/simd"
	"datablocks/internal/storage"
)

// Record is what a key resolves to: the tuple identifier of its current
// version and, while an update of the key is between Publish and Seal,
// the identifier of the version it replaces (valid while HasPrev).
// Visibility of either is decided by the storage layer's stamps.
type Record struct {
	Cur     storage.TupleID
	Prev    storage.TupleID
	HasPrev bool
}

// numShards partitions the key space so writers hashed to different
// stripes of the table do not re-serialize on one index lock. A power of
// two; 64 comfortably exceeds any plausible writer count.
const (
	shardBits = 6
	numShards = 1 << shardBits
)

// slot is one cell of a shard's table. tid is the packed tuple identifier
// plus one, so the zero slot is empty.
type slot struct {
	key int64
	tid uint64
}

func pack(t storage.TupleID) uint64 { return (uint64(t.Chunk)<<32 | uint64(t.Row)) + 1 }

func unpack(p uint64) storage.TupleID {
	p--
	return storage.TupleID{Chunk: uint32(p >> 32), Row: uint32(p)}
}

// inflight is one side-table entry: the version a published, not yet
// sealed update of key replaces.
type inflight struct {
	key  int64
	prev storage.TupleID
}

// shard is one lock-striped partition of the index, padded to two cache
// lines so a reader's lock word never shares a line with a neighbour's.
type shard struct {
	mu    sync.RWMutex
	slots []slot // power-of-two length
	n     int    // occupied slots
	// prevs holds one entry per update in flight in this shard — as many
	// as there are concurrent writers, so a linear search of a slice.
	prevs []inflight
	_     [48]byte
}

// Hash is a unique index over an int64 key column. It is internally
// lock-striped: operations on keys in different shards proceed
// concurrently, while each individual key's version protocol keeps its
// usual serialization on the shard lock.
type Hash struct {
	shards [numShards]shard
	// publishes counts version installations (Insert, Publish, Repoint,
	// Rebuild entries) — the index side of the engine's epoch/index
	// telemetry.
	publishes obs.Counter
}

// Publishes returns the cumulative count of version installations.
func (h *Hash) Publishes() uint64 { return h.publishes.Load() }

// NewHash creates an empty index, pre-sized so that capacity keys insert
// without rehashing.
func NewHash(capacity int) *Hash {
	h := &Hash{}
	h.reset(capacity)
	return h
}

// reset empties every shard and sizes it for its share of capacity keys.
func (h *Hash) reset(capacity int) {
	// Shares are binomial; 1/16 on top covers the fullest shard from a few
	// thousand keys per shard up, and below that a rehash costs nothing.
	per := capacity / numShards
	per += per/16 + 4
	size := 8
	for size-size/8 < per {
		size *= 2
	}
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		s.slots, s.n, s.prevs = make([]slot, size), 0, nil
		s.mu.Unlock()
	}
}

// locate routes a key: the low bits of its hash pick the lock stripe (the
// splitmix finalizer keeps sequential keys from piling into one), the bits
// above them the slot its probe sequence starts from.
func (h *Hash) locate(key int64) (*shard, uint64) {
	x := simd.Mix64(uint64(key))
	return &h.shards[x&(numShards-1)], x >> shardBits
}

func homeOf(key int64) uint64 { return simd.Mix64(uint64(key)) >> shardBits }

// find returns the slot holding key, or the empty slot that ends its
// probe sequence. The table is never full (7/8 load), so the walk ends.
func (s *shard) find(key int64, home uint64) (int, bool) {
	mask := uint64(len(s.slots) - 1)
	for i := home & mask; ; i = (i + 1) & mask {
		if s.slots[i].tid == 0 {
			return int(i), false
		}
		if s.slots[i].key == key {
			return int(i), true
		}
	}
}

// put stores key → tid in the empty slot i that find returned, doubling
// the table first when that would pass 7/8 load.
func (s *shard) put(i int, key int64, home uint64, tid storage.TupleID) {
	if s.n+1 > len(s.slots)-len(s.slots)/8 {
		s.grow()
		i, _ = s.find(key, home)
	}
	s.slots[i] = slot{key: key, tid: pack(tid)}
	s.n++
}

func (s *shard) grow() {
	old := s.slots
	s.slots = make([]slot, 2*len(old))
	for _, c := range old {
		if c.tid != 0 {
			i, _ := s.find(c.key, homeOf(c.key))
			s.slots[i] = c
		}
	}
}

// remove empties slot i and shifts the rest of its probe run back over
// the hole, so no lookup is ever cut short by it.
func (s *shard) remove(i int) {
	mask := uint64(len(s.slots) - 1)
	hole := uint64(i)
	for j := (hole + 1) & mask; s.slots[j].tid != 0; j = (j + 1) & mask {
		// The entry at j may move into the hole iff its home position is
		// not cyclically inside (hole, j].
		if (j-homeOf(s.slots[j].key))&mask >= (j-hole)&mask {
			s.slots[hole] = s.slots[j]
			hole = j
		}
	}
	s.slots[hole] = slot{}
	s.n--
}

// prevOf returns the version an in-flight update of key replaces.
func (s *shard) prevOf(key int64) (int, storage.TupleID, bool) {
	for i, p := range s.prevs {
		if p.key == key {
			return i, p.prev, true
		}
	}
	return 0, storage.TupleID{}, false
}

// takePrev is prevOf, removing the entry.
func (s *shard) takePrev(key int64) (storage.TupleID, bool) {
	i, prev, ok := s.prevOf(key)
	if ok {
		last := len(s.prevs) - 1
		s.prevs[i] = s.prevs[last]
		s.prevs = s.prevs[:last]
	}
	return prev, ok
}

// Insert adds a key; duplicate keys are rejected (primary-key semantics).
func (h *Hash) Insert(key int64, tid storage.TupleID) error {
	s, home := h.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, dup := s.find(key, home)
	if dup {
		return fmt.Errorf("index: duplicate key %d", key)
	}
	s.put(i, key, home, tid)
	h.publishes.Inc()
	return nil
}

// Publish atomically repoints a key at the new (still pending) version of
// its tuple, parking the old version in the side table for readers whose
// epoch predates the commit. Step two of the update protocol: the caller
// has inserted the pending row and commits it in storage *after* the
// publish, so a reader always finds a visible version through either Cur
// or Prev.
//
// Publishing a key that is not in the index records no previous version:
// fabricating one would let a Lookup fall back to TupleID{0,0} and
// materialize an unrelated row.
func (h *Hash) Publish(key int64, tid storage.TupleID) {
	s, home := h.locate(key)
	s.mu.Lock()
	if i, ok := s.find(key, home); ok {
		s.takePrev(key) // a publish over an unsealed publish replaces it
		s.prevs = append(s.prevs, inflight{key: key, prev: unpack(s.slots[i].tid)})
		s.slots[i].tid = pack(tid)
	} else {
		s.put(i, key, home, tid)
	}
	h.publishes.Inc()
	s.mu.Unlock()
}

// Seal ends the update protocol for a key (step four, after
// storage.CommitUpdate minted epoch): the previous version is dropped
// from the side table. A committed version is visible at every later
// epoch, so a reader that now finds Cur not yet born retries at a fresh
// epoch instead of falling back. The epoch itself is not recorded —
// visibility is decided by the storage layer's stamps alone.
func (h *Hash) Seal(key int64, epoch uint64) {
	s, _ := h.locate(key)
	s.mu.Lock()
	s.takePrev(key)
	s.mu.Unlock()
}

// Repoint replaces a key's record with a fresh current version and no
// history, for callers that committed the new version without publishing
// it first (WAL replay). It is only safe when no reader resolves the key
// concurrently with the update: the commit retires the old version
// *before* Repoint installs the new identifier,
// so a concurrent reader could resolve the stale identifier to a retired
// row and transiently miss — exactly the anomaly the
// Publish/CommitUpdate/Seal protocol exists to prevent. Use it for
// single-threaded maintenance and benchmarks only.
func (h *Hash) Repoint(key int64, tid storage.TupleID) {
	s, home := h.locate(key)
	s.mu.Lock()
	s.takePrev(key)
	if i, ok := s.find(key, home); ok {
		s.slots[i].tid = pack(tid)
	} else {
		s.put(i, key, home, tid)
	}
	h.publishes.Inc()
	s.mu.Unlock()
}

// Unpublish reverts a Publish whose commit never happened: the previous
// version becomes current again, or — when the publish created the
// record (no previous version) — the record is removed entirely, so the
// aborted pending identifier cannot linger as a permanently invisible
// current version. Defensive abort path.
func (h *Hash) Unpublish(key int64) {
	s, home := h.locate(key)
	s.mu.Lock()
	if i, ok := s.find(key, home); ok {
		if prev, has := s.takePrev(key); has {
			s.slots[i].tid = pack(prev)
		} else {
			s.remove(i)
		}
	}
	s.mu.Unlock()
}

// Delete removes a key, reporting whether it existed.
func (h *Hash) Delete(key int64) bool {
	s, home := h.locate(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.find(key, home)
	if ok {
		s.takePrev(key)
		s.remove(i)
	}
	return ok
}

// Lookup resolves a key to its current tuple identifier. Callers that
// need anomaly-free reads under concurrent updates use LookupRecord and
// fall back to the previous version by epoch.
func (h *Hash) Lookup(key int64) (storage.TupleID, bool) {
	rec, ok := h.LookupRecord(key)
	return rec.Cur, ok
}

// LookupRecord resolves a key to its current version and, while an update
// of it is in flight, the previous one.
func (h *Hash) LookupRecord(key int64) (rec Record, ok bool) {
	s, home := h.locate(key)
	s.mu.RLock()
	var i int
	if i, ok = s.find(key, home); ok {
		rec.Cur = unpack(s.slots[i].tid)
		_, rec.Prev, rec.HasPrev = s.prevOf(key)
	}
	s.mu.RUnlock()
	return rec, ok
}

// Len returns the number of indexed keys. The count is a sum over shard
// snapshots, exact whenever no insert or delete runs concurrently.
func (h *Hash) Len() int {
	keys, _ := h.Size()
	return keys
}

// Size returns Len together with the heap the index holds: 16 bytes per
// slot, occupied or not, plus the side tables.
func (h *Hash) Size() (keys, bytes int) {
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.RLock()
		keys += s.n
		bytes += 16 * (len(s.slots) + cap(s.prevs))
		s.mu.RUnlock()
	}
	return keys, bytes
}

// Rebuild repopulates the index by scanning the key column of a relation.
// Required after a sorted freeze, which reassigns tuple identifiers (and
// drops version history: rebuilt records have no previous version), and
// the bulk path recovery uses to reconstruct the index at reopen: chunks
// restored from a durable manifest stream their keys through the
// pin/reload machinery one block at a time and the key attribute only, so
// reopening reads the key sections rather than the frozen set. The tables
// are sized from the relation's row count up front, so the sweep never
// rehashes.
// Rebuild runs stop-the-world with respect to the index: callers already
// exclude writers (sorted freeze, recovery), so shard locks are taken
// per-entry rather than held across the scan.
func (h *Hash) Rebuild(r *storage.Relation, keyCol int) error {
	return h.RebuildReserve(r, keyCol, 0)
}

// RebuildReserve is Rebuild with room for extra more keys: the shards are
// sized once for the relation's rows plus extra, so recovery's WAL replay
// inserts its keys without growing a shard.
func (h *Hash) RebuildReserve(r *storage.Relation, keyCol, extra int) error {
	h.reset(r.NumRows() + extra)
	views := r.Snapshot()
	var scratch []int64 // per-chunk bulk decode buffer, reused across chunks
	keyOnly := []int{keyCol}
	for ci := range views {
		c := &views[ci]
		// Pin the view's block in RAM (loading the key attribute from the
		// block store when it is not resident) for this chunk's key sweep
		// only — holding all pins to the end would defeat the memory
		// budget.
		if err := c.Acquire(keyOnly); err != nil {
			return err
		}
		frozen := c.IsFrozen()
		var keys []int64
		var hotNulls []bool
		if frozen {
			// Decode the key column once per block instead of one point
			// access per row: the bulk rebuild path at recovery time.
			scratch = c.Block().AppendInts(keyCol, scratch[:0])
			keys = scratch
		} else {
			// Hot columns are already flat; read them in place (never via
			// the scratch buffer, which would alias live column storage).
			key := c.Hot().Columns(c.Rows())[keyCol]
			keys, hotNulls = key.Ints, key.Nulls
		}
		for row := 0; row < c.Rows(); row++ {
			if c.IsDeleted(row) {
				continue
			}
			if frozen {
				if c.Block().IsNull(keyCol, row) {
					continue
				}
			} else if hotNulls != nil && hotNulls[row] {
				continue
			}
			if err := h.Insert(keys[row], storage.TupleID{Chunk: uint32(ci), Row: uint32(row)}); err != nil {
				c.Release()
				return fmt.Errorf("%w during rebuild", err)
			}
		}
		c.Release()
	}
	return nil
}
