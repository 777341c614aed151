package storage

import (
	"sync"
	"time"

	"datablocks/internal/compress"
	"datablocks/internal/core"
	"datablocks/internal/obs"
)

// relMetrics is the relation's freeze-pipeline telemetry: cumulative
// counters plus a latency histogram, all obs shared instruments. Freezes
// run outside hot scan kernels, so the contended-atomic instruments are
// fine here — no sharding needed.
type relMetrics struct {
	histOnce sync.Once
	// freezeNsHist buckets freeze durations from 64µs to ~2s.
	freezeNsHist *obs.Histogram

	freezes       obs.Counter
	sortedFreezes obs.Counter
	freezeNs      obs.Counter
	bytesIn       obs.Counter // uncompressed hot bytes entering freezes
	bytesOut      obs.Counter // compressed block bytes produced

	// Per-compression-scheme accounting, indexed by compress.Scheme.
	schemeAttrs    [schemeSlots]obs.Counter
	schemeBytesIn  [schemeSlots]obs.Counter
	schemeBytesOut [schemeSlots]obs.Counter
}

// schemeSlots bounds the per-scheme arrays; compress.Scheme is a small
// enum (currently 4 values). Out-of-range schemes fold into the last slot
// rather than panicking, so a future scheme cannot crash telemetry.
const schemeSlots = 8

func (m *relMetrics) hist() *obs.Histogram {
	m.histOnce.Do(func() {
		m.freezeNsHist = obs.NewHistogram(obs.ExpBounds(1<<16, 4, 8)...)
	})
	return m.freezeNsHist
}

// noteFreeze records one completed block compression of the n rows of
// cols, the columns freezeBlock consumed. Runs outside the relation lock
// (the same place freezeBlock itself runs).
func (r *Relation) noteFreeze(blk *core.Block, cols []core.ColumnData, n int, dur time.Duration, sorted bool) {
	m := &r.met
	m.freezes.Inc()
	if sorted {
		m.sortedFreezes.Inc()
	}
	m.freezeNs.Add(uint64(dur))
	m.hist().Observe(uint64(dur))
	for i := 0; i < blk.NumAttrs(); i++ {
		in := uint64(core.HotBytes(&cols[i], n))
		out := uint64(blk.AttrCompressedSize(i))
		m.bytesIn.Add(in)
		m.bytesOut.Add(out)
		s := int(blk.Scheme(i))
		if s >= schemeSlots {
			s = schemeSlots - 1
		}
		m.schemeAttrs[s].Inc()
		m.schemeBytesIn[s].Add(in)
		m.schemeBytesOut[s].Add(out)
	}
}

// SchemeStats is the freeze pipeline's per-compression-scheme breakdown.
type SchemeStats struct {
	// Scheme is the compress.Scheme name (uncompressed, single, dict,
	// trunc).
	Scheme string
	// Attrs counts attribute vectors frozen under this scheme.
	Attrs uint64
	// BytesIn/BytesOut are the uncompressed input and compressed output
	// bytes of those vectors; BytesIn/BytesOut is the scheme's ratio.
	BytesIn, BytesOut uint64
}

// Ratio returns the scheme's compression ratio (input over output bytes);
// 0 when nothing was compressed.
func (s SchemeStats) Ratio() float64 {
	if s.BytesOut == 0 {
		return 0
	}
	return float64(s.BytesIn) / float64(s.BytesOut)
}

// FreezeStats is a snapshot of the relation's freeze-pipeline telemetry.
type FreezeStats struct {
	// Freezes counts completed block compressions; SortedFreezes the
	// subset that ran the stop-the-world sorted path.
	Freezes, SortedFreezes uint64
	// TotalNs is the cumulative wall time spent inside core.Freeze.
	TotalNs uint64
	// BytesIn/BytesOut are cumulative uncompressed input and compressed
	// output bytes across all frozen attributes.
	BytesIn, BytesOut uint64
	// Durations buckets individual freeze latencies (nanoseconds).
	Durations obs.HistSnapshot
	// Schemes breaks the traffic down per compression scheme; schemes
	// never used are omitted.
	Schemes []SchemeStats
}

// Ratio returns the overall compression ratio; 0 when nothing froze.
func (s FreezeStats) Ratio() float64 {
	if s.BytesOut == 0 {
		return 0
	}
	return float64(s.BytesIn) / float64(s.BytesOut)
}

// FreezeStatsSnapshot reports the relation's cumulative freeze-pipeline
// telemetry. Counters are read individually (each atomically); they only
// grow, so the snapshot is consistent enough for monitoring.
func (r *Relation) FreezeStatsSnapshot() FreezeStats {
	m := &r.met
	s := FreezeStats{
		Freezes:       m.freezes.Load(),
		SortedFreezes: m.sortedFreezes.Load(),
		TotalNs:       m.freezeNs.Load(),
		BytesIn:       m.bytesIn.Load(),
		BytesOut:      m.bytesOut.Load(),
		Durations:     m.hist().Snapshot(),
	}
	for i := 0; i < schemeSlots; i++ {
		attrs := m.schemeAttrs[i].Load()
		if attrs == 0 {
			continue
		}
		s.Schemes = append(s.Schemes, SchemeStats{
			Scheme:   compress.Scheme(i).String(),
			Attrs:    attrs,
			BytesIn:  m.schemeBytesIn[i].Load(),
			BytesOut: m.schemeBytesOut[i].Load(),
		})
	}
	return s
}

// EpochStats is a snapshot of the relation's MVCC bookkeeping: how far
// the write epoch has advanced and how much versioning state is waiting
// for the sorted-freeze garbage collection that resets it.
type EpochStats struct {
	// WriteEpoch is the current write epoch — every delete and update
	// commit bumps it, so it doubles as the count of versioning commits.
	WriteEpoch uint64
	// RetiredRows is the GC backlog: epoch-stamped retire tombstones
	// held for epoch readers, freed only by a sorted freeze.
	RetiredRows uint64
	// PendingRows counts update versions inserted but not yet committed.
	PendingRows uint64
	// BornRows counts rows carrying a birth stamp (committed or pending
	// update versions) — the born-map side of the same GC backlog.
	BornRows uint64
}

// EpochStatsSnapshot sums the per-chunk version bookkeeping under the
// read lock.
func (r *Relation) EpochStatsSnapshot() EpochStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := EpochStats{WriteEpoch: r.epoch.Load()}
	for _, c := range r.dir.list() {
		s.RetiredRows += uint64(c.retiredCount.Load())
		s.PendingRows += uint64(c.pending.Load())
		s.BornRows += uint64(c.bornCount.Load())
	}
	return s
}

// ColdStats summarizes the relation's cold-store traffic.
type ColdStats struct {
	// Evictions counts Frozen→Evicted transitions. Collapses counts
	// single-flight reload collapses: pinners that waited out a concurrent
	// reload and shared its disk read instead of issuing their own.
	Evictions, Reloads, Collapses int64
	// Reloads counts pins that had to read from the store — whole blocks
	// or single attributes. ResidentBytes is the compressed frozen set
	// currently in RAM: the loaded attributes of every block plus the
	// directories evicted chunks keep; BudgetBytes the configured ceiling
	// (0: unbounded).
	ResidentBytes, BudgetBytes int64
	// StoredBlocks/DiskBytes describe the store's on-disk footprint.
	StoredBlocks int
	DiskBytes    int64
}

// ColdStatsSnapshot reports eviction/reload counts and residency. Zero
// values when no block store is attached.
func (r *Relation) ColdStatsSnapshot() ColdStats {
	s := ColdStats{
		Evictions: r.evictions.Load(),
		Reloads:   r.reloads.Load(),
		Collapses: r.collapses.Load(),
	}
	if r.cache != nil {
		cs := r.cache.Stats()
		s.ResidentBytes, s.BudgetBytes = cs.ResidentBytes, cs.BudgetBytes
	}
	if r.store != nil {
		ss := r.store.Stats()
		s.StoredBlocks, s.DiskBytes = ss.Blocks, ss.DiskBytes
	}
	return s
}

// MemStats summarizes a relation's footprint. FrozenBytes covers what is
// resident in RAM — the loaded attributes of frozen blocks and the block
// directories kept for chunks that have been to the store; EvictedBytes is
// the compressed size of what currently lives only in the block store:
// evicted blocks, and the attributes a partly loaded block lacks.
type MemStats struct {
	HotBytes      int
	FrozenBytes   int
	EvictedBytes  int
	HotChunks     int
	FrozenChunks  int
	EvictedChunks int
	Rows          int
	DeletedRows   int
}

// TotalBytes returns the combined in-RAM footprint (evicted blocks are
// on disk and excluded).
func (m MemStats) TotalBytes() int { return m.HotBytes + m.FrozenBytes }

// MemoryStats reports the relation's current footprint, separating hot
// uncompressed storage from frozen Data Blocks (the quantity Table 1 and
// Figure 10 measure). Freezing chunks still count as hot: their block has
// not been installed yet.
func (r *Relation) MemoryStats() MemStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var m MemStats
	for _, c := range r.dir.list() {
		m.DeletedRows += int(c.numDeleted.Load())
		m.Rows += c.Rows()
		if d := c.dir.Load(); d != nil {
			m.FrozenBytes += d.Size()
		}
		p := c.pay.Load()
		if p.blk != nil {
			m.FrozenChunks++
			loaded := p.blk.CompressedSize()
			m.FrozenBytes += loaded
			if !p.blk.Has(nil) {
				m.EvictedBytes += int(c.frozenBytes.Load()) - loaded
			}
			continue
		}
		if p.hot == nil {
			m.EvictedChunks++
			m.EvictedBytes += int(c.frozenBytes.Load())
			continue
		}
		m.HotChunks++
		h := p.hot
		hn := h.Rows()
		for ci := range h.cols {
			m.HotBytes += core.HotBytes(&h.cols[ci], hn)
		}
	}
	return m
}
