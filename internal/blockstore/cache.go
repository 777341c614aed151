package blockstore

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Owner is the cache's view of the chunk that serves a resident block:
// its observed access count (temperature) and whether a reader currently
// pins its payload in RAM. The storage layer implements it with its
// chunks; the cache never touches the block itself.
type Owner interface {
	// Temperature is a monotone access counter, bumped by every scan or
	// point lookup that touches the owner's block.
	Temperature() uint64
	// Pinned reports whether an in-flight reader holds the payload; a
	// pinned owner is never nominated for eviction.
	Pinned() bool
}

// Cache tracks which frozen blocks are resident in RAM against a byte
// budget and nominates eviction victims coldest-first. It deliberately
// does not own the block payloads: the storage layer installs and drops
// them under its own locks, reporting residency changes here — so a block
// is counted exactly once, whether it is serving scans out of its chunk
// or has just been reloaded from the store.
type Cache struct {
	budget int64

	mu   sync.Mutex
	res  map[Owner]resident
	used int64 // resident payload bytes plus reserved
	seq  uint64

	evictions atomic.Int64
}

// resident is one owner's entry: its payload bytes in RAM and when they
// were last installed.
type resident struct {
	bytes int64
	seq   uint64 // install order, the eviction tie-break
}

// CacheStats summarizes cache occupancy and churn.
type CacheStats struct {
	BudgetBytes   int64
	ResidentBytes int64
	Resident      int
	Evictions     int64
}

// NewCache creates a residency cache with the given byte budget; a budget
// of zero or less means unbounded (no victim is ever nominated).
func NewCache(budget int64) *Cache {
	return &Cache{budget: budget, res: make(map[Owner]resident)}
}

// Budget returns the configured byte budget (<= 0: unbounded).
func (c *Cache) Budget() int64 { return c.budget }

// Used returns the resident bytes currently accounted for.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Insert records that an owner's block is resident with the given
// footprint. Re-inserting an already resident owner — its block gained
// attributes — updates its size; either way the owner becomes the most
// recently installed.
func (c *Cache) Insert(o Owner, bytes int64) {
	c.mu.Lock()
	c.used += bytes - c.res[o].bytes
	c.seq++
	c.res[o] = resident{bytes: bytes, seq: c.seq}
	c.mu.Unlock()
}

// Reserve accounts bytes that are resident but never evictable — the block
// directories evicted owners keep — against the budget.
func (c *Cache) Reserve(bytes int64) {
	c.mu.Lock()
	c.used += bytes
	c.mu.Unlock()
}

// Drop records that an owner's block left RAM (evicted, or the owner went
// away). Dropping a non-resident owner is a no-op.
func (c *Cache) Drop(o Owner) {
	c.mu.Lock()
	if r, ok := c.res[o]; ok {
		c.used -= r.bytes
		delete(c.res, o)
		c.evictions.Add(1)
	}
	c.mu.Unlock()
}

// OverBudget reports whether the resident set exceeds the budget.
func (c *Cache) OverBudget() bool {
	if c.budget <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used > c.budget
}

// Victims nominates unpinned owners, coldest first by temperature, whose
// combined eviction would bring the resident set back under budget. Equal
// temperatures — the normal case under scans, which touch every owner once
// per pass — go most recently installed first: a cyclic scan larger than
// the budget then keeps a stable resident prefix and churns one slot,
// instead of evicting the block it needs next. The order is total, so the
// same state nominates the same victims. The caller performs the actual
// evictions (some may fail benignly — a reader can pin a victim after
// nomination) and reports them back through Drop.
func (c *Cache) Victims() []Owner {
	if c.budget <= 0 {
		return nil
	}
	c.mu.Lock()
	shed := c.used - c.budget
	if shed <= 0 {
		c.mu.Unlock()
		return nil
	}
	type cand struct {
		o Owner
		resident
		temp uint64
	}
	cands := make([]cand, 0, len(c.res))
	for o, r := range c.res {
		if o.Pinned() {
			continue
		}
		cands = append(cands, cand{o, r, o.Temperature()})
	}
	c.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].temp != cands[j].temp {
			return cands[i].temp < cands[j].temp
		}
		return cands[i].seq > cands[j].seq
	})
	var out []Owner
	for _, v := range cands {
		if shed <= 0 {
			break
		}
		out = append(out, v.o)
		shed -= v.bytes
	}
	return out
}

// Stats returns a snapshot of cache occupancy and eviction count.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		BudgetBytes:   c.budget,
		ResidentBytes: c.used,
		Resident:      len(c.res),
		Evictions:     c.evictions.Load(),
	}
}
