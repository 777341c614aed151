// Package index provides the traditional global index structure the paper
// contrasts with SMA/PSMA-narrowed scans in Table 3: a unique hash index
// from an integer primary key to a stable tuple identifier.
//
// Entries are small version records — the current tuple identifier, the
// previous one, and the write epoch at which the current version was
// committed — repointed atomically under the index lock. Together with
// the storage layer's epoch-aware point reads this closes the
// update/lookup read anomaly: a reader that resolves a key mid-update
// falls back from the current (not-yet-born) version to the previous one,
// so a key that exists at all times never transiently misses.
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

// Record is one version record of the index: the tuple identifier the key
// currently resolves to, the identifier of the immediately preceding
// version (valid while HasPrev), and the write epoch at which Cur was
// committed. Epoch is zero for plain inserts and for a published-but-not-
// yet-committed update (visibility is always decided by the storage
// layer's stamps; the record epoch is diagnostic).
type Record struct {
	Cur     storage.TupleID
	Prev    storage.TupleID
	HasPrev bool
	Epoch   uint64
}

// numShards partitions the key space so writers hashed to different
// stripes of the table do not re-serialize on one index lock. A power of
// two; 64 comfortably exceeds any plausible writer count.
const numShards = 64

// shard is one lock-striped partition of the index.
type shard struct {
	mu sync.RWMutex
	m  map[int64]Record
}

// Hash is a unique index over an int64 key column. It is internally
// lock-striped: operations on keys in different shards proceed
// concurrently, while each individual key's version-record protocol keeps
// its usual serialization on the shard lock.
type Hash struct {
	shards [numShards]shard
	// publishes counts version-record installations (Insert, Publish,
	// Repoint, Rebuild entries) — the index side of the engine's
	// epoch/index telemetry.
	publishes obs.Counter
}

// Publishes returns the cumulative count of version-record
// installations.
func (h *Hash) Publishes() uint64 { return h.publishes.Load() }

// NewHash creates an empty index, pre-sized for capacity entries.
func NewHash(capacity int) *Hash {
	h := &Hash{}
	per := capacity / numShards
	for i := range h.shards {
		h.shards[i].m = make(map[int64]Record, per)
	}
	return h
}

// shardFor routes a key to its lock stripe. The splitmix finalizer keeps
// sequential keys from piling into one shard.
func (h *Hash) shardFor(key int64) *shard {
	return &h.shards[simd.Mix64(uint64(key))&(numShards-1)]
}

// Insert adds a key; duplicate keys are rejected (primary-key semantics).
func (h *Hash) Insert(key int64, tid storage.TupleID) error {
	s := h.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[key]; dup {
		return fmt.Errorf("index: duplicate key %d", key)
	}
	s.m[key] = Record{Cur: tid}
	h.publishes.Inc()
	return nil
}

// Publish atomically repoints a key at the new (still pending) version of
// its tuple, retaining the old version for readers whose epoch predates
// the commit. Step two of the update protocol: the caller has inserted
// the pending row and commits it in storage *after* the publish, so a
// reader always finds a visible version through either Cur or Prev.
//
// Publishing a key that is not in the index records no previous version:
// fabricating one from the zero Record would let a Lookup fall back to
// TupleID{0,0} and materialize an unrelated row.
func (h *Hash) Publish(key int64, tid storage.TupleID) {
	s := h.shardFor(key)
	s.mu.Lock()
	old, ok := s.m[key]
	s.m[key] = Record{Cur: tid, Prev: old.Cur, HasPrev: ok}
	h.publishes.Inc()
	s.mu.Unlock()
}

// Seal stamps the record with the write epoch at which its current
// version committed (step four, after storage.CommitUpdate).
func (h *Hash) Seal(key int64, epoch uint64) {
	s := h.shardFor(key)
	s.mu.Lock()
	if rec, ok := s.m[key]; ok {
		rec.Epoch = epoch
		s.m[key] = rec
	}
	s.mu.Unlock()
}

// Repoint replaces a key's record with a fresh current version and no
// history, for callers that rewrote the tuple with the storage layer's
// atomic delete+insert (storage.Relation.Update). It is only safe when
// no reader resolves the key concurrently with the update: Update
// retires the old version *before* Repoint installs the new identifier,
// so a concurrent reader could resolve the stale identifier to a retired
// row and transiently miss — exactly the anomaly the
// Publish/CommitUpdate/Seal protocol exists to prevent. Use it for
// single-threaded maintenance and benchmarks only.
func (h *Hash) Repoint(key int64, tid storage.TupleID) {
	s := h.shardFor(key)
	s.mu.Lock()
	s.m[key] = Record{Cur: tid}
	h.publishes.Inc()
	s.mu.Unlock()
}

// Unpublish reverts a Publish whose commit never happened: the previous
// version becomes current again, or — when the publish created the
// record (no previous version) — the record is removed entirely, so the
// aborted pending identifier cannot linger as a permanently invisible
// current version. Defensive abort path.
func (h *Hash) Unpublish(key int64) {
	s := h.shardFor(key)
	s.mu.Lock()
	if rec, ok := s.m[key]; ok {
		if rec.HasPrev {
			s.m[key] = Record{Cur: rec.Prev}
		} else {
			delete(s.m, key)
		}
	}
	s.mu.Unlock()
}

// Delete removes a key, reporting whether it existed.
func (h *Hash) Delete(key int64) bool {
	s := h.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; !ok {
		return false
	}
	delete(s.m, key)
	return true
}

// Lookup resolves a key to its current tuple identifier. Callers that
// need anomaly-free reads under concurrent updates use LookupRecord and
// fall back to the previous version by epoch.
func (h *Hash) Lookup(key int64) (storage.TupleID, bool) {
	s := h.shardFor(key)
	s.mu.RLock()
	rec, ok := s.m[key]
	s.mu.RUnlock()
	return rec.Cur, ok
}

// LookupRecord resolves a key to its full version record.
func (h *Hash) LookupRecord(key int64) (Record, bool) {
	s := h.shardFor(key)
	s.mu.RLock()
	rec, ok := s.m[key]
	s.mu.RUnlock()
	return rec, ok
}

// Len returns the number of indexed keys. The count is a sum over shard
// snapshots, exact whenever no insert or delete runs concurrently.
func (h *Hash) Len() int {
	n := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Rebuild repopulates the index by scanning the key column of a relation.
// Required after a sorted freeze, which reassigns tuple identifiers (and
// drops version history: rebuilt records have no previous version), and
// the bulk path recovery uses to reconstruct the index at reopen: chunks
// restored from a durable manifest stream their keys through the
// pin/reload machinery one block at a time and the key attribute only, so
// reopening reads the key sections rather than the frozen set.
// Rebuild runs stop-the-world with respect to the index: callers already
// exclude writers (sorted freeze, recovery), so shard locks are taken
// per-entry rather than held across the scan.
func (h *Hash) Rebuild(r *storage.Relation, keyCol int) error {
	per := r.NumRows() / numShards
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		s.m = make(map[int64]Record, per)
		s.mu.Unlock()
	}
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
		if frozen {
			// Decode the key column once per block instead of one point
			// access per row: the bulk rebuild path at recovery time.
			scratch = c.Block().AppendInts(keyCol, scratch[:0])
			keys = scratch
		} else {
			// Hot columns are already flat; read them in place (never via
			// the scratch buffer, which would alias live column storage).
			keys = c.Hot().Ints(keyCol)
		}
		for row := 0; row < c.Rows(); row++ {
			if c.IsDeleted(row) {
				continue
			}
			if frozen {
				if c.Block().IsNull(keyCol, row) {
					continue
				}
			} else if c.Hot().IsNull(keyCol, row) {
				continue
			}
			key := keys[row]
			s := h.shardFor(key)
			s.mu.Lock()
			if _, dup := s.m[key]; dup {
				s.mu.Unlock()
				c.Release()
				return fmt.Errorf("index: duplicate key %d during rebuild", key)
			}
			s.m[key] = Record{Cur: storage.TupleID{Chunk: uint32(ci), Row: uint32(row)}}
			s.mu.Unlock()
			h.publishes.Inc()
		}
		c.Release()
	}
	return nil
}
