package storage

import (
	"fmt"
	"slices"

	"datablocks/internal/core"
	"datablocks/internal/types"
)

// newHotChunk allocates a hot chunk with full-capacity backing arrays:
// growth never reallocates, so the slice headers are immutable and a
// snapshot that copies them stays coherent with appends that hold only a
// stripe lock. Nullable columns get their null flags eagerly for the same
// reason; non-nullable columns never have any.
func (r *Relation) newHotChunk() *HotChunk {
	return &HotChunk{cols: core.MakeColumns(r.schema, r.chunkCap)}
}

// ensureTail returns the stripe's hot tail chunk, rolling over to a fresh
// chunk when there is none, the tail is claimed by a freeze, or it is
// full. Caller holds st.mu only; rollover grows the chunk list under a
// brief relation write lock. Callers already inside r.mu use
// ensureTailLocked instead.
func (r *Relation) ensureTail(st *relStripe, sIdx int) (*Chunk, int) {
	if c := st.tail; c != nil && c.State() == ChunkHot && c.pay.Load().hot.Rows() < r.chunkCap {
		return c, st.tailOrd
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ensureTailLocked(st, sIdx)
}

// ensureTailLocked is ensureTail for callers that hold both st.mu and the
// relation write lock.
func (r *Relation) ensureTailLocked(st *relStripe, sIdx int) (*Chunk, int) {
	if c := st.tail; c != nil && c.State() == ChunkHot && c.pay.Load().hot.Rows() < r.chunkCap {
		return c, st.tailOrd
	}
	c := newChunk(r.newHotChunk(), int32(sIdx))
	st.tail, st.tailOrd = c, r.dir.publish(c)
	return c, st.tailOrd
}

// validateRow checks a row against the schema without touching storage, so
// rejected rows leave the relation unchanged.
func (r *Relation) validateRow(row types.Row) error {
	if len(row) != r.schema.NumColumns() {
		return fmt.Errorf("storage: row has %d values, schema has %d", len(row), r.schema.NumColumns())
	}
	for i, v := range row {
		if v.IsNull() {
			if !r.schema.Columns[i].Nullable {
				return fmt.Errorf("storage: NULL in non-nullable column %q", r.schema.Columns[i].Name)
			}
			continue
		}
		if v.Kind() != r.schema.Columns[i].Kind {
			return fmt.Errorf("storage: column %q expects %v, got %v",
				r.schema.Columns[i].Name, r.schema.Columns[i].Kind, v.Kind())
		}
	}
	return nil
}

// Insert appends one tuple and returns its stable identifier. It is the
// single-writer entry point, routing to stripe 0; concurrent writers use
// InsertStripe with distinct stripes.
func (r *Relation) Insert(row types.Row) (TupleID, error) {
	return r.InsertStripe(0, row)
}

// InsertStripe appends one tuple through write stripe s, holding only that
// stripe's appender lock (plus a brief relation lock on chunk rollover).
// Callers on distinct stripes append concurrently.
func (r *Relation) InsertStripe(s int, row types.Row) (TupleID, error) {
	if err := r.validateRow(row); err != nil {
		return TupleID{}, err
	}
	st := &r.stripes[s]
	st.mu.Lock()
	c, ci := r.ensureTail(st, s)
	tid := r.appendRow(c, ci, row, 0)
	st.mu.Unlock()
	r.live.Add(1)
	return tid, nil
}

// appendRow appends a pre-validated row to the resolved tail chunk c
// (ordinal ci, from ensureTail or ensureTailLocked), born at the given
// stamp: 0 for a plain insert, pendingEpoch for an update version awaiting
// its commit. The stamp is stored
// *before* the row count is published, so whoever can see the row sees its
// stamp. Caller holds the owning stripe's mu and adjusts the live count.
func (r *Relation) appendRow(c *Chunk, ci int, row types.Row, born uint64) TupleID {
	h := c.pay.Load().hot
	n := h.Rows()
	if born != 0 {
		c.born.ensure(r.chunkCap)[n].Store(born)
		c.bornCount.Add(1)
	}
	core.SetRow(h.cols, n, row)
	// Publish the row only after its values are in place: the row count is
	// the watermark snapshots read, and its atomic store orders the value
	// writes before any reader that loads it.
	h.n.Store(int32(n + 1))
	return TupleID{Chunk: uint32(ci), Row: uint32(n)}
}

// BulkAppend loads n pre-columnarized tuples, splitting them across chunks.
// It is the fast path for data generators and loaders.
func (r *Relation) BulkAppend(cols []core.ColumnData, n int) error {
	_, err := r.BulkAppendTracked(cols, n)
	return err
}

// BulkAppendTracked is BulkAppend returning the ordinals of every chunk
// the load touched, in order — the bookkeeping a write-ahead-logged bulk
// load needs to tie its WAL records to chunk durability.
func (r *Relation) BulkAppendTracked(cols []core.ColumnData, n int) ([]uint32, error) {
	if len(cols) != r.schema.NumColumns() {
		return nil, fmt.Errorf("storage: %d columns, schema has %d", len(cols), r.schema.NumColumns())
	}
	for i := range cols {
		if !r.schema.Columns[i].Nullable && cols[i].Nulls != nil && slices.Contains(cols[i].Nulls[:n], true) {
			return nil, fmt.Errorf("storage: NULL in non-nullable column %q", r.schema.Columns[i].Name)
		}
	}
	// Bulk loads go through stripe 0 and hold the relation write lock for
	// the whole load, which its chunk rollovers need.
	st := &r.stripes[0]
	st.mu.Lock()
	defer st.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	var ords []uint32
	off := 0
	for off < n {
		c, ord := r.ensureTailLocked(st, 0)
		if len(ords) == 0 || ords[len(ords)-1] != uint32(ord) {
			ords = append(ords, uint32(ord))
		}
		h := c.pay.Load().hot
		hn := h.Rows()
		span := r.chunkCap - hn
		if span > n-off {
			span = n - off
		}
		for i := range cols {
			core.CopyRows(&h.cols[i], hn, &cols[i], off, span)
		}
		h.n.Store(int32(hn + span))
		r.live.Add(int64(span))
		off += span
	}
	return ords, nil
}

// Delete flags the tuple as deleted, stamping it with a fresh write
// epoch. Frozen tuples keep their slot (§3: frozen records are marked
// with a flag); hot tuples likewise, preserving tuple identifiers. It
// reports whether the tuple existed and was live. Readers that captured
// an earlier epoch keep seeing the tuple.
func (r *Relation) Delete(tid TupleID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deleteLocked(tid)
}

// deleteLocked flags a tuple under the write lock held by the caller,
// stamping it with the next epoch and then publishing that epoch.
func (r *Relation) deleteLocked(tid TupleID) bool {
	c, ok := r.chunkFor(tid)
	e := r.epoch.Load() + 1
	if !ok || !r.retireLocked(c, tid.Row, e) {
		return false
	}
	r.epoch.Store(e)
	r.live.Add(-1)
	return true
}

// retireLocked stamps row as retired at epoch e, reporting false when it
// already was. Caller holds the write lock.
func (r *Relation) retireLocked(c *Chunk, row uint32, e uint64) bool {
	s := &c.retired.ensure(r.chunkCap)[row]
	if s.Load() != 0 {
		return false
	}
	s.Store(e + 1)
	c.retiredCount.Add(1)
	c.numDeleted.Add(1)
	return true
}

// InsertPendingStripe appends a new row version through write stripe s,
// holding only that stripe's appender lock. The version is invisible to
// every reader and snapshot (born at +inf) until CommitUpdate stamps it.
// It is step one of the anomaly-free update protocol: insert the new
// version, publish its identifier in the index, then commit, which still
// serializes on the relation lock. The pending row does not count as live.
func (r *Relation) InsertPendingStripe(s int, row types.Row) (TupleID, error) {
	if err := r.validateRow(row); err != nil {
		return TupleID{}, err
	}
	st := &r.stripes[s]
	st.mu.Lock()
	c, ci := r.ensureTail(st, s)
	c.pending.Add(1)
	tid := r.appendRow(c, ci, row, pendingEpoch)
	st.mu.Unlock()
	return tid, nil
}

// CommitUpdate atomically makes the pending row newTid visible and
// retires oldTid, both stamped with the same freshly minted write epoch;
// any reader epoch therefore sees exactly one of the two versions. It
// returns the commit epoch, and false if oldTid is already dead or either
// identifier is unknown (the caller should AbortPending the new version).
func (r *Relation) CommitUpdate(oldTid, newTid TupleID) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	nc, ok := r.chunkFor(newTid)
	if !ok {
		return 0, false
	}
	oc, ok := r.chunkFor(oldTid)
	if !ok {
		return 0, false
	}
	if ret := oc.retired.load(); ret != nil && ret[oldTid.Row].Load() != 0 {
		return 0, false
	}
	// Stamp first, publish the epoch last: a lock-free reader that loads
	// the new epoch then finds both stamps, and one that loaded an older
	// epoch ignores them.
	e := r.epoch.Load() + 1
	nc.born.ensure(r.chunkCap)[newTid.Row].Store(e)
	nc.pending.Add(-1)
	r.retireLocked(oc, oldTid.Row, e)
	r.epoch.Store(e)
	// Live count is unchanged: the old version leaves, the new one enters.
	return e, true
}

// AbortPending discards a pending row inserted by InsertPendingStripe: the row
// keeps its slot but is retired before every epoch, invisible to every
// reader past and future. It must only be called on a row whose commit
// never happened.
func (r *Relation) AbortPending(tid TupleID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.chunkFor(tid)
	if !ok {
		return
	}
	if r.retireLocked(c, tid.Row, 0) {
		c.pending.Add(-1)
	}
}
