package exec

import (
	"slices"

	"datablocks/internal/core"
	"datablocks/internal/simd"
	"datablocks/internal/types"
)

// hashTable is the build side of a hash join. The embedded groupTable holds
// one slot per distinct key hash, whose entry id heads a chain that next
// continues (-1 ends it). Entries of one chain share a hash, not
// necessarily a key: the prober verifies each against keys, whose stored
// side holds every entry's key cells. Entries with a NULL key are never
// linked in, so NULL keys never join.
//
// Every join kind fills its table from the same per-worker buildSinks; an
// entry is what the join emits from. An inner join's entries are its build
// rows, kept by the sinks in segments (rows, one segCol per build column),
// the sinks' segments taken in sink order: the stored key side holds a
// copy of their key cells, and a chain links every row with the hash in
// ascending row order, which fixes the join's emission order and with it
// every downstream float sum. A semi or anti join's entries are its
// distinct build keys: rows is nil, the stored side holds one copy of each
// key, and a chain links only distinct keys with equal hashes.
//
// tags is a 2^16-bit filter over the top hash bits — our analogue of
// HyPer's tagged hash-table pointers (Appendix E, [20]) — that probes test
// before touching the table and vectorized scans test early, to drop probe
// tuples before unpacking them.
type hashTable struct {
	groupTable
	next []int32
	rows []segCol
	keys []keyCol
	tags [1024]uint64 // 2^16 tag bits
}

// link makes row the head of h's chain, in front of the chain's current
// rows.
func (ht *hashTable) link(h uint64, row int32) {
	if pos, ok := ht.find(h); ok {
		ht.next[row] = int32(ht.slots[pos]) - 1
		ht.slots[pos] = uint32(row) + 1
	} else {
		ht.next[row] = -1
		ht.insert(h, uint32(row))
	}
	ht.setTag(h)
}

// segRows is the size of the segments an inner-join sink keeps its rows
// in: each is allocated once, at its full size, and filled in place, so a
// kept row is copied once and no array is regrown. Row id's cells are at
// offset id&(segRows-1) of segment id>>segBits; a sink's last segment,
// partly filled, leaves ids behind its rows that no chain links. 256 rows
// keep that tail small for the many small build sides (nation, region).
const (
	segBits = 8
	segRows = 1 << segBits
)

// segCol is one build column of an inner join's kept rows, segment by
// segment; of the value lists only the one of the column's kind is used.
type segCol struct {
	kind   types.Kind
	ints   []*[segRows]int64
	floats []*[segRows]float64
	strs   []*[segRows]string
	nulls  []*[segRows]bool
}

// put copies src's n cells from row from on into the last segment at
// offset at, appending a new segment first when at is 0.
func (c *segCol) put(src *core.BatchCol, at, from, n int) {
	switch c.kind {
	case types.Int64:
		c.ints = putSeg(c.ints, at, n, src.Ints[from:])
	case types.Float64:
		c.floats = putSeg(c.floats, at, n, src.Floats[from:])
	default:
		c.strs = putSeg(c.strs, at, n, src.Strs[from:])
	}
	var nulls []bool
	if src.Nulls != nil {
		nulls = src.Nulls[from:]
	}
	c.nulls = putSeg(c.nulls, at, n, nulls)
}

func putSeg[T any](segs []*[segRows]T, at, n int, src []T) []*[segRows]T {
	if at == 0 {
		segs = append(segs, new([segRows]T))
	}
	if src != nil {
		copy(segs[len(segs)-1][at:at+n], src)
	}
	return segs
}

// gather copies the cells of rows ids into dst, as a batch column.
func (c *segCol) gather(dst *core.BatchCol, ids []uint32) {
	dst.Kind = c.kind
	switch c.kind {
	case types.Int64:
		dst.Ints = gatherSegs(dst.Ints, c.ints, ids)
	case types.Float64:
		dst.Floats = gatherSegs(dst.Floats, c.floats, ids)
	default:
		dst.Strs = gatherSegs(dst.Strs, c.strs, ids)
	}
	dst.Nulls = gatherSegs(dst.Nulls, c.nulls, ids)
}

// load copies row id's cell into register slot of t.
func (c *segCol) load(id uint32, t *Tuple, slot int) {
	g, at := id>>segBits, id&(segRows-1)
	t.Nulls[slot] = c.nulls[g][at]
	switch c.kind {
	case types.Int64:
		t.Ints[slot] = c.ints[g][at]
	case types.Float64:
		t.Floats[slot] = c.floats[g][at]
	default:
		t.Strs[slot] = c.strs[g][at]
	}
}

// gatherSegs gathers the cells of rows ids, reusing dst.
//
//dbvet:hotpath
func gatherSegs[T any](dst []T, segs []*[segRows]T, ids []uint32) []T {
	d := resize(dst, len(ids))[:len(ids)]
	for i, id := range ids {
		d[i] = segs[id>>segBits][id&(segRows-1)]
	}
	return d
}

// buildSink is one morsel worker's join build sink, for every join kind.
// A semi- or anti-join sink binds the key columns of the rows it consumes,
// hashes them and enters each distinct non-NULL key once into its own
// hashTable, copying no other column; an inner-join sink copies the live
// columns of every row — the keys and what the join's consumer reads —
// into its segments, which linkRows hashes and links once the workers are
// done; a dead column's segCol holds no segment. Batches and tuples
// (viewed as one-row batches) take the same path, so both chains share one
// build.
type buildSink struct {
	ht   *hashTable
	cols []int    // the build keys' columns in the build pipeline's output
	hs   []uint64 // a semi or anti join's per-batch hash scratch
	kept []segCol // an inner join's rows; nil for a semi or anti join
	live []bool   // the build columns kept
	rows int      // rows consumed: the join's BuildRows
}

func newBuildSink(kinds []types.Kind, live []bool, cols []int, inner bool) *buildSink {
	s := &buildSink{ht: &hashTable{keys: make([]keyCol, len(cols))}, cols: cols, live: live}
	for i, c := range cols {
		s.ht.keys[i] = keyCol{kind: kinds[c], canonZero: true}
	}
	if inner {
		s.kept = make([]segCol, len(kinds))
		for c, k := range kinds {
			s.kept[c].kind = k
		}
	}
	return s
}

// sink offers the build sink to both chains. An inner-join sink keeps a
// batch, or a tuple's registers as a one-row batch; a semi- or anti-join
// sink binds a batch's key columns or a tuple's key registers and enters
// their keys.
func (s *buildSink) sink() pipeSink {
	one := core.Batch{N: 1, Cols: make([]core.BatchCol, len(s.kept))}
	return pipeSink{
		tuple: func(t *Tuple) {
			if s.kept != nil {
				for c := range one.Cols {
					one.Cols[c] = core.BatchCol{Ints: t.Ints[c : c+1], Floats: t.Floats[c : c+1], Strs: t.Strs[c : c+1], Nulls: t.Nulls[c : c+1]}
				}
				s.keep(&one)
				return
			}
			bindTuple(s.ht.keys, t, s.cols)
			s.add(1)
		},
		batch: func(b *core.Batch) {
			if s.kept != nil {
				s.keep(b)
				return
			}
			bindBatch(s.ht.keys, b, s.cols)
			s.add(b.N)
		},
	}
}

// add enters the keys of the n rows bound to the key columns that the
// table lacks.
func (s *buildSink) add(n int) {
	s.rows += n
	s.hs = resize(s.hs, n)
	s.ht.insertKeys(s.hs)
}

// keep copies b's rows into the sink's last segment, starting a new one
// whenever it is full: only a sink's last segment is partly filled, with
// rows mod segRows rows.
func (s *buildSink) keep(b *core.Batch) {
	for at := 0; at < b.N; {
		fill := s.rows & (segRows - 1)
		n := min(b.N-at, segRows-fill)
		for c := range s.kept {
			if s.live[c] {
				s.kept[c].put(&b.Cols[c], fill, at, n)
			}
		}
		s.rows += n
		at += n
	}
}

// linkRows makes one inner-join table of the sinks' segments, taken in
// sink order, holding rows rows. Segment by segment, from the last, it
// copies the key cells into the stored key side (floats as their
// canonical bit patterns), hashes them and links the rows in descending
// order, each becoming the new head of its hash's chain, so every chain
// reads in ascending row order: arrival order within a sink, sink order
// across them.
func linkRows(sinks []*buildSink, rows int) *hashTable {
	root := sinks[0]
	ht, cols, segs := root.ht, root.kept, 0
	for _, s := range sinks {
		segs += (s.rows + segRows - 1) >> segBits
	}
	for _, s := range sinks[1:] {
		for c := range cols {
			cols[c].ints = append(cols[c].ints, s.kept[c].ints...)
			cols[c].floats = append(cols[c].floats, s.kept[c].floats...)
			cols[c].strs = append(cols[c].strs, s.kept[c].strs...)
			cols[c].nulls = append(cols[c].nulls, s.kept[c].nulls...)
		}
	}
	n := segs << segBits
	ht.rows, ht.next = cols, make([]int32, n)
	for i := range ht.keys {
		if k := &ht.keys[i]; k.kind == types.String {
			k.gStr = make([]string, n)
		} else {
			k.gInt = make([]int64, n)
		}
	}
	ht.reserve(rows)
	hs := make([]uint64, segRows)
	g := segs
	for si := len(sinks) - 1; si >= 0; si-- {
		for left := sinks[si].rows; left > 0; {
			fill := (left-1)&(segRows-1) + 1
			left, g = left-fill, g-1
			base := g << segBits
			for i, c := range root.cols {
				k, col := &ht.keys[i], &cols[c]
				k.nulls = col.nulls[g][:fill]
				switch k.kind {
				case types.Int64:
					k.ints = col.ints[g][:fill]
					copy(k.gInt[base:], k.ints)
				case types.Float64:
					k.floats = col.floats[g][:fill]
					for r, f := range k.floats {
						k.gInt[base+r] = int64(floatKeyBits(f))
					}
				default:
					k.strs = col.strs[g][:fill]
					copy(k.gStr[base:], k.strs)
				}
				hashKeyCol(hs[:fill], i == 0, k)
			}
		rows:
			for r := fill - 1; r >= 0; r-- {
				for i := range ht.keys {
					if ht.keys[i].nulls[r] {
						continue rows
					}
				}
				ht.link(hs[r], int32(base+r))
			}
		}
	}
	return ht
}

// keyFilter is what a key pass (executor.keyPass) learns of a probe
// side's non-NULL integer keys: their tag bits, in ht, which holds nothing
// else, and their range lo..hi. col is the build relation's key column.
type keyFilter struct {
	ht     hashTable
	lo, hi int64
	col    int
}

// add enters the non-NULL keys among ints.
func (f *keyFilter) add(ints []int64, nulls []bool) {
	for r, k := range ints {
		if nulls == nil || !nulls[r] {
			f.ht.setTag(simd.Mix64(uint64(k)))
			f.lo, f.hi = min(f.lo, k), max(f.hi, k)
		}
	}
}

// merge enters another worker's keys.
func (f *keyFilter) merge(o *keyFilter) {
	for i, w := range o.ht.tags {
		f.ht.tags[i] |= w
	}
	f.lo, f.hi = min(f.lo, o.lo), max(f.hi, o.hi)
}

// insertKeys enters the keys of the len(hs) rows bound to the probe side
// of ht.keys that the table does not hold yet, hashing them into hs. NULL
// keys are skipped, and so is a row whose key is the previous row's —
// found without a probe, the common case in a build input clustered by
// its key.
//
//dbvet:hotpath
func (ht *hashTable) insertKeys(hs []uint64) {
	keys := ht.keys
	for k := range keys {
		hashKeyCol(hs, k == 0, &keys[k])
	}
	last, lastHash := int32(-1), uint64(0)
rows:
	for r, h := range hs {
		// A NULL row never verifies against a stored key, so this also
		// passes NULL rows on to the check below.
		if last >= 0 && h == lastHash && verifyRow(keys, uint32(last), r) {
			continue
		}
		for k := range keys {
			if keys[k].nulls != nil && keys[k].nulls[r] {
				continue rows
			}
		}
		head := ht.head(h)
		e := head
		for e >= 0 && !verifyRow(keys, uint32(e), r) {
			e = ht.next[e]
		}
		if e < 0 {
			e = ht.newKey(h, r, head)
		}
		last, lastHash = e, h
	}
}

// newKey stores bound row r's key, hashed h, as a new entry; head is the
// entry heading h's chain, -1 when no key has that hash yet.
func (ht *hashTable) newKey(h uint64, r int, head int32) int32 {
	e := int32(len(ht.next))
	for k := range ht.keys {
		ht.keys[k].storeRow(r)
	}
	ht.next = append(ht.next, -1)
	if head >= 0 {
		ht.link(h, e)
		return e
	}
	ht.insert(h, uint32(e))
	ht.setTag(h)
	return e
}

// mergeKeys enters the keys of another worker's key table that ht lacks:
// o's stored key cells are bound as ht's probe side, as aggregator.merge
// does, floats as the canonical bit patterns they are stored as. The
// table is sized for all of o's keys first: workers' key sets are often
// disjoint (a build side clustered by its key).
func (ht *hashTable) mergeKeys(o *hashTable, hs []uint64) []uint64 {
	ht.reserve(len(ht.next) + len(o.next))
	ht.next = slices.Grow(ht.next, len(o.next))
	for i := range ht.keys {
		k, ok := &ht.keys[i], &o.keys[i]
		k.gNull = slices.Grow(k.gNull, len(o.next))
		if k.kind == types.String {
			k.gStr = slices.Grow(k.gStr, len(o.next))
		} else {
			k.gInt = slices.Grow(k.gInt, len(o.next))
		}
		k.nulls, k.ints, k.floats, k.strs = nil, ok.gInt, nil, ok.gStr
		if k.kind == types.Float64 {
			k.kind = types.Int64
		}
	}
	hs = resize(hs, len(o.next))
	ht.insertKeys(hs)
	for i := range ht.keys {
		k := &ht.keys[i]
		k.kind, k.ints, k.strs = o.keys[i].kind, nil, nil
	}
	return hs
}

// head returns the first build row of h's chain, -1 when no build key has
// that hash; next continues the chain.
func (ht *hashTable) head(h uint64) int32 {
	if !ht.testTag(h) {
		return -1
	}
	if pos, ok := ht.find(h); ok {
		return int32(ht.slots[pos]) - 1
	}
	return -1
}

func (ht *hashTable) setTag(h uint64) {
	tag := h >> 48
	ht.tags[tag>>6] |= 1 << (tag & 63)
}

func (ht *hashTable) testTag(h uint64) bool {
	tag := h >> 48
	return ht.tags[tag>>6]>>(tag&63)&1 == 1
}

// testTagInt probes the tag filter for a bare integer key — the early-probe
// fast path used inside vectorized scans (Appendix E, Figure 14): one hash,
// one bit test, no table access.
func (ht *hashTable) testTagInt(key int64) bool {
	return ht.testTag(simd.Mix64(uint64(key)))
}
