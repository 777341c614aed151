package index

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"datablocks/internal/simd"
	"datablocks/internal/storage"
)

// crowdedKeys are the first 112 non-negative integers that hash to shards
// 0 and 1: a key space small enough for a byte to name a key and crowded
// enough that two 8-slot tables see long probe runs, wrap-around and
// several doublings.
var crowdedKeys = func() []int64 {
	keys := make([]int64, 0, 112)
	for k := int64(0); len(keys) < cap(keys); k++ {
		if simd.Mix64(uint64(k))&(numShards-1) < 2 {
			keys = append(keys, k)
		}
	}
	return keys
}()

// modelCoverage records which of the table's harder paths a run took.
type modelCoverage struct {
	grew, wrapped, shiftedAcrossEnd bool
}

// runModel drives one (op, key) byte pair per step against the index and
// a plain map of Records, comparing every result, Len and Publishes, and
// checks the table's structural invariants at the end.
func runModel(t *testing.T, ops []byte) modelCoverage {
	t.Helper()
	keys := crowdedKeys
	h := NewHash(0)
	model := map[int64]Record{}
	var publishes uint64
	var cov modelCoverage
	for step := 0; step+1 < len(ops); step += 2 {
		op, key := ops[step]%8, keys[int(ops[step+1])%len(keys)]
		// Step 0 installs TupleID{0,0}: the packed form's zero must not
		// read as an empty slot.
		tid := storage.TupleID{Chunk: uint32(step / 2), Row: uint32(ops[step+1])}
		old, had := model[key]
		switch op {
		case 0:
			err := h.Insert(key, tid)
			if (err != nil) != had {
				t.Fatalf("step %d: Insert(%d) err=%v, key present=%v", step, key, err, had)
			}
			if !had {
				model[key] = Record{Cur: tid}
				publishes++
			}
		case 1:
			h.Publish(key, tid)
			// An absent key gets no previous version.
			if had {
				model[key] = Record{Cur: tid, Prev: old.Cur, HasPrev: true}
			} else {
				model[key] = Record{Cur: tid}
			}
			publishes++
		case 2:
			h.Seal(key, uint64(step))
			if had {
				model[key] = Record{Cur: old.Cur}
			}
		case 3:
			h.Unpublish(key)
			if old.HasPrev {
				model[key] = Record{Cur: old.Prev}
			} else {
				delete(model, key)
			}
		case 4:
			h.Repoint(key, tid)
			model[key] = Record{Cur: tid}
			publishes++
		case 5:
			if had && runCrossesEnd(h, key) {
				cov.shiftedAcrossEnd = true
			}
			if got := h.Delete(key); got != had {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", step, key, got, had)
			}
			delete(model, key)
		case 6:
			if got, ok := h.Lookup(key); ok != had || got != old.Cur {
				t.Fatalf("step %d: Lookup(%d) = %v %v, want %v %v", step, key, got, ok, old.Cur, had)
			}
		case 7:
			if got, ok := h.LookupRecord(key); ok != had || got != old {
				t.Fatalf("step %d: LookupRecord(%d) = %+v %v, want %+v %v", step, key, got, ok, old, had)
			}
		}
		if h.Len() != len(model) {
			t.Fatalf("step %d (op %d key %d): Len = %d, model has %d", step, op, key, h.Len(), len(model))
		}
	}
	if h.Publishes() != publishes {
		t.Fatalf("Publishes = %d, want %d", h.Publishes(), publishes)
	}
	for _, key := range keys {
		want, had := model[key]
		if got, ok := h.LookupRecord(key); ok != had || got != want {
			t.Fatalf("final LookupRecord(%d) = %+v %v, want %+v %v", key, got, ok, want, had)
		}
	}
	slotBytes := 0
	for si := range h.shards {
		s := &h.shards[si]
		cov.grew = cov.grew || len(s.slots) > 8
		slotBytes += len(s.slots)*16 + cap(s.prevs)*16
		occupied := 0
		for i, c := range s.slots {
			if c.tid == 0 {
				continue
			}
			occupied++
			if j, ok := s.find(c.key, homeOf(c.key)); !ok || j != i {
				t.Fatalf("shard %d slot %d: key %d unreachable from its home (find = %d %v)", si, i, c.key, j, ok)
			}
			if uint64(i) < homeOf(c.key)&uint64(len(s.slots)-1) {
				cov.wrapped = true
			}
		}
		if occupied != s.n {
			t.Fatalf("shard %d: %d occupied slots, n = %d", si, occupied, s.n)
		}
		for _, p := range s.prevs {
			if rec := model[p.key]; !rec.HasPrev || rec.Prev != p.prev {
				t.Fatalf("shard %d: side table holds %+v, model has %+v", si, p, rec)
			}
		}
	}
	if _, bytes := h.Size(); bytes != slotBytes {
		t.Fatalf("Size reports %d bytes, tables hold %d", bytes, slotBytes)
	}
	return cov
}

// runCrossesEnd reports whether the probe run holding key continues from
// the table's last slot into its first, so deleting key shifts entries
// back across the end.
func runCrossesEnd(h *Hash, key int64) bool {
	s, home := h.locate(key)
	i, _ := s.find(key, home)
	if s.slots[0].tid == 0 {
		return false
	}
	for ; i < len(s.slots); i++ {
		if s.slots[i].tid == 0 {
			return false
		}
	}
	return true
}

// TestIndexMatchesModel holds the table against a map over random
// operation sequences, and requires that the sequences reached growth,
// wrapped probe runs and a backward shift across the table end.
func TestIndexMatchesModel(t *testing.T) {
	var cov modelCoverage
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*4000)
		for i := 0; i < len(ops); i += 2 {
			// Fill, churn, drain: inserts dominate the first third,
			// deletes the last.
			op := byte(rng.Intn(8))
			switch phase := 3 * i / len(ops); {
			case phase == 0 && rng.Intn(2) == 0:
				op = 0
			case phase == 2 && rng.Intn(2) == 0:
				op = 5
			}
			ops[i], ops[i+1] = op, byte(rng.Intn(256))
		}
		c := runModel(t, ops)
		cov.grew = cov.grew || c.grew
		cov.wrapped = cov.wrapped || c.wrapped
		cov.shiftedAcrossEnd = cov.shiftedAcrossEnd || c.shiftedAcrossEnd
	}
	if !cov.grew || !cov.shiftedAcrossEnd {
		t.Fatalf("sequences missed a path: %+v", cov)
	}
	// A drained table holds no wrapped run; a filled one must.
	fill := make([]byte, 2*100)
	for i := 0; i < len(fill); i += 2 {
		fill[i+1] = byte(i / 2)
	}
	if c := runModel(t, fill); !c.wrapped || !c.grew {
		t.Fatalf("fill sequence missed a path: %+v", c)
	}
}

func FuzzIndexModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 7, 0, 2, 0, 7, 0, 5, 0, 6, 0})
	f.Add([]byte{1, 9, 7, 9, 3, 9, 6, 9, 0, 9, 4, 9, 1, 9, 1, 9, 3, 9})
	fill := make([]byte, 0, 2*224)
	for k := 0; k < 112; k++ {
		fill = append(fill, 0, byte(k))
	}
	for k := 0; k < 112; k += 3 {
		fill = append(fill, 5, byte(k))
	}
	f.Add(fill)
	f.Fuzz(func(t *testing.T, ops []byte) { runModel(t, ops) })
}

// TestIndexConcurrentGrowth: readers resolve keys that exist at all times
// while writers push every shard through several doublings and delete
// other keys out from under the same probe runs. No miss, no wrong
// identifier. Meaningful under -race.
func TestIndexConcurrentGrowth(t *testing.T) {
	const stable, doomed, fresh = 2000, 2000, 20000
	tidOf := func(k int64) storage.TupleID { return storage.TupleID{Chunk: uint32(k >> 10), Row: uint32(k & 1023)} }
	h := NewHash(0)
	for k := int64(0); k < stable+doomed; k++ {
		if err := h.Insert(k, tidOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	var done atomic.Bool
	var readers, writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for k := int64(g); !done.Load(); k = (k + 7) % stable {
				if tid, ok := h.Lookup(k); !ok || tid != tidOf(k) {
					t.Errorf("Lookup(%d) = %v %v during growth, want %v", k, tid, ok, tidOf(k))
					return
				}
				if rec, ok := h.LookupRecord(k); !ok || rec != (Record{Cur: tidOf(k)}) {
					t.Errorf("LookupRecord(%d) = %+v %v during growth", k, rec, ok)
					return
				}
			}
		}(g)
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		for k := int64(stable + doomed); k < stable+doomed+fresh; k++ {
			if err := h.Insert(k, tidOf(k)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for k := int64(stable); k < stable+doomed; k++ {
			if !h.Delete(k) {
				t.Errorf("Delete(%d) found nothing", k)
				return
			}
		}
	}()
	writers.Wait()
	done.Store(true)
	readers.Wait()
	if h.Len() != stable+fresh {
		t.Fatalf("Len = %d, want %d", h.Len(), stable+fresh)
	}
	if got := len(h.shards[0].slots); got < 8<<3 {
		t.Fatalf("shard 0 has %d slots: the writers did not force three doublings", got)
	}
}

// TestIndexBytesPerKey pins the footprint claim: a million keys inserted
// one at a time into an unsized index (the table's own path) cost at
// most 40 bytes of live heap each, and Size — what TableMetrics reports —
// accounts for that heap to within 5 %.
func TestIndexBytesPerKey(t *testing.T) {
	const n = 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := NewHash(0)
	for k := int64(0); k < n; k++ {
		if err := h.Insert(k, storage.TupleID{Chunk: uint32(k >> 14), Row: uint32(k & 16383)}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	_, bytes := h.Size()
	reported := float64(bytes)
	t.Logf("%d keys: %.1f B/key of heap, Size reports %.1f B/key", n, heap/n, reported/n)
	if heap/n > 40 {
		t.Fatalf("index holds %.1f B of heap per key, want <= 40", heap/n)
	}
	if reported < 0.95*heap || reported > 1.05*heap {
		t.Fatalf("Size reports %.0f B, heap held = %.0f: off by more than 5 %%", reported, heap)
	}
	runtime.KeepAlive(h)
}
