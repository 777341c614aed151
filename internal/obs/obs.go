// Package obs is the engine's allocation-free telemetry core.
//
// Two families of primitives, matching the engine's two execution
// regimes:
//
//   - Shared instruments — Counter, Gauge, Histogram — are single cache
//     lines of atomics, safe for any number of concurrent writers and
//     readable at any time without locks; StripedCounter spreads one
//     count over eight lines for paths two cores take at once. They live
//     for the lifetime of a table or store and back DB.Metrics().
//
//   - Shard instruments — ShardCounter, ShardHistogram — are plain
//     (non-atomic) cells owned by exactly one worker. They are the only
//     metrics API allowed inside //dbvet:hotpath functions (enforced by
//     the hotpath analyzer): an increment is a single add with no
//     contended cache line, no interface, and no allocation, so the
//     hotpathperf gate stays clean. Workers flush their shards into the
//     shared instruments at batch/morsel boundaries — in this engine,
//     the same place per-worker aggregator and result states are merged
//     after wg.Wait().
//
// Nothing here allocates after construction; observing and flushing are
// allocation-free by design.
package obs

import "sync/atomic"

// Counter is a monotonically increasing shared counter. Safe for
// concurrent use; every Add is a contended atomic, so hot kernels must
// use a per-worker ShardCounter and flush at the batch boundary instead.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// StripedCounter is a Counter for paths two cores take at once: eight
// cells, each alone on its cache line, picked by a caller-chosen index
// (a key, a row), so concurrent writers rarely touch the same line. Load
// sums the cells; the count stays exact.
type StripedCounter struct {
	_     [56]byte
	cells [8]struct {
		v atomic.Uint64
		_ [56]byte
	}
}

// Inc adds one to cell i mod 8.
func (c *StripedCounter) Inc(i uint64) { c.cells[i%8].v.Add(1) }

// Load returns the sum of the cells.
func (c *StripedCounter) Load() (n uint64) {
	for i := range c.cells {
		n += c.cells[i].v.Load()
	}
	return n
}

// Gauge is a shared instantaneous value (may go up and down).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// ShardCounter is the hot-path fast path: a plain uint64 owned by one
// worker. Incrementing is a single add — no atomics, no allocation —
// which is why it is the one metrics API the dbvet hotpath analyzer
// admits inside //dbvet:hotpath functions. Flush into the shared
// Counter when the worker reaches a merge boundary.
type ShardCounter uint64

// Inc adds one.
func (c *ShardCounter) Inc() { *c++ }

// Add adds n.
func (c *ShardCounter) Add(n uint64) { *c += ShardCounter(n) }

// Value returns the shard's current value.
func (c ShardCounter) Value() uint64 { return uint64(c) }

// FlushTo adds the shard's value into dst and zeroes the shard.
func (c *ShardCounter) FlushTo(dst *Counter) {
	if *c != 0 {
		dst.Add(uint64(*c))
		*c = 0
	}
}

// Histogram is a shared fixed-bucket histogram: len(bounds)+1 cells,
// cell i counting observations v <= bounds[i], the last cell counting
// the rest (+Inf). Bounds are set at construction and never change, so
// Observe is bounded work with no allocation.
type Histogram struct {
	bounds []uint64
	cells  []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds ...uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, cells: make([]atomic.Uint64, len(b)+1)}
}

// ExpBounds returns n bounds start, start*factor, start*factor², … —
// the usual log-scale layout for latencies and sizes.
func ExpBounds(start, factor uint64, n int) []uint64 {
	if start == 0 || factor < 2 || n <= 0 {
		panic("obs: ExpBounds needs start>0, factor>=2, n>0")
	}
	out := make([]uint64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

func bucketOf(bounds []uint64, v uint64) int {
	// Bounds counts are small (tens); linear probe beats binary search
	// on branch prediction and stays trivially allocation-free.
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

// Observe records one value. Contended-atomic; hot kernels use a
// ShardHistogram and flush at the batch boundary.
func (h *Histogram) Observe(v uint64) {
	h.cells[bucketOf(h.bounds, v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []uint64 // upper bounds; the final bucket is +Inf
	Counts []uint64 // len(Bounds)+1 cells
	Count  uint64
	Sum    uint64
}

// Snapshot copies the histogram's cells. Each cell is read atomically;
// the set of cells is not a single linearization point, which is fine
// for monitoring (cumulative counts only ever grow).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.cells)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.cells {
		s.Counts[i] = h.cells[i].Load()
	}
	return s
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) of
// the observed distribution: the smallest bucket bound whose cumulative
// count covers q. Returns 0 on an empty histogram; observations in the
// +Inf bucket report the last finite bound.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			break
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ShardHistogram is the worker-owned twin of Histogram: plain cells, no
// atomics. Safe inside //dbvet:hotpath functions; flush into the shared
// histogram at the merge boundary.
type ShardHistogram struct {
	bounds []uint64
	cells  []uint64
	count  uint64
	sum    uint64
}

// NewShardHistogram builds a shard over the same bounds as the shared
// histogram it will flush into (pass h.Bounds()).
func NewShardHistogram(bounds []uint64) *ShardHistogram {
	return &ShardHistogram{bounds: bounds, cells: make([]uint64, len(bounds)+1)}
}

// Bounds returns the shared histogram's bucket bounds, for building a
// matching shard.
func (h *Histogram) Bounds() []uint64 { return h.bounds }

// Observe records one value into the shard. Plain adds only.
func (s *ShardHistogram) Observe(v uint64) {
	s.cells[bucketOf(s.bounds, v)]++
	s.count++
	s.sum += v
}

// Count returns the number of shard observations since the last flush.
func (s *ShardHistogram) Count() uint64 { return s.count }

// FlushTo adds the shard's cells into dst and zeroes the shard. The
// shard must have been built over dst's bounds.
func (s *ShardHistogram) FlushTo(dst *Histogram) {
	if s.count == 0 {
		return
	}
	if len(s.cells) != len(dst.cells) {
		panic("obs: shard/histogram bucket mismatch")
	}
	for i, c := range s.cells {
		if c != 0 {
			dst.cells[i].Add(c)
			s.cells[i] = 0
		}
	}
	dst.count.Add(s.count)
	dst.sum.Add(s.sum)
	s.count, s.sum = 0, 0
}
