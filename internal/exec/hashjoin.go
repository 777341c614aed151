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
// rows, kept by the sinks and concatenated in sink order into rows (the
// build side's columns, as a batch's): the stored key side aliases their
// key columns, and a chain links every row with the hash in ascending row
// order, which fixes the join's emission order and with it every
// downstream float sum. A semi or anti join's entries are its distinct
// build keys: rows is nil, the stored side holds one copy of each key, and
// a chain links only distinct keys with equal hashes.
//
// tags is a 2^16-bit filter over the top hash bits — our analogue of
// HyPer's tagged hash-table pointers (Appendix E, [20]) — that probes test
// before touching the table and vectorized scans test early, to drop probe
// tuples before unpacking them.
type hashTable struct {
	groupTable
	next []int32
	rows []core.BatchCol
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

// buildSink is one morsel worker's join build sink, for every join kind:
// it binds the key columns of the rows it consumes and hashes them as they
// arrive. A semi- or anti-join sink enters each distinct non-NULL key once
// into its own hashTable and copies no other column; an inner-join sink
// keeps every row and its hash, which linkRows links once the workers are
// done. Batches and tuples (bound as one-row batches) take the same path,
// so both chains share one build.
type buildSink struct {
	ht   *hashTable
	cols []int    // the build keys' columns in the build pipeline's output
	hs   []uint64 // an inner join's kept row hashes; per-batch scratch otherwise
	kept *Result  // an inner join's rows; nil for a semi or anti join
	rows int      // rows consumed: the join's BuildRows
}

func newBuildSink(kinds []types.Kind, cols []int, inner bool) *buildSink {
	s := &buildSink{ht: &hashTable{keys: make([]keyCol, len(cols))}, cols: cols}
	for i, c := range cols {
		s.ht.keys[i] = keyCol{kind: kinds[c], canonZero: true}
	}
	if inner {
		s.kept = NewResult(kinds)
	}
	return s
}

// sink offers the build sink to both chains: a batch's key columns or a
// tuple's key registers are bound, then hashed.
func (s *buildSink) sink(reads []bool) pipeSink {
	return pipeSink{
		tuple: func(t *Tuple) {
			bindTuple(s.ht.keys, t, s.cols)
			if s.kept != nil {
				s.kept.appendTuple(t)
			}
			s.add(1)
		},
		batch: func(b *core.Batch) {
			bindBatch(s.ht.keys, b, s.cols)
			if s.kept != nil {
				s.kept.appendBatch(b)
			}
			s.add(b.N)
		},
		reads: reads,
	}
}

// add hashes the n rows bound to the key columns: a semi- or anti-join
// sink enters the keys its table lacks, an inner-join sink keeps the
// hashes beside its rows.
func (s *buildSink) add(n int) {
	s.rows += n
	if s.kept == nil {
		s.hs = resize(s.hs, n)
		s.ht.insertKeys(s.hs)
		return
	}
	at := len(s.hs)
	s.hs = slices.Grow(s.hs, n)[:at+n]
	for k := range s.ht.keys {
		hashKeyCol(s.hs[at:], k == 0, &s.ht.keys[k])
	}
}

// linkRows makes one inner-join table of the sinks' rows, concatenated in
// sink order, from the hashes the sinks saved. Rows are linked in
// descending order — the last sink's first, each sink's from its last row
// — each becoming the new head of its hash's chain, so every chain reads
// in ascending row order.
func linkRows(sinks []*buildSink) *hashTable {
	root := sinks[0]
	var parts []*Result
	for _, s := range sinks[1:] {
		parts = append(parts, s.kept)
	}
	root.kept.append(parts...)
	ht, n := root.ht, root.kept.NumRows()
	ht.rows = root.kept.batch().Cols
	ht.next = make([]int32, n)
	for i, c := range root.cols {
		col, k := &ht.rows[c], &ht.keys[i]
		k.gInt, k.gStr = col.Ints, col.Strs
		if col.Kind == types.Float64 {
			k.gInt = make([]int64, n)
			for r, f := range col.Floats {
				k.gInt[r] = int64(floatKeyBits(f))
			}
		}
	}
	ht.reserve(n)
	row := n
	for i := len(sinks) - 1; i >= 0; i-- {
		hs := sinks[i].hs
	rows:
		for r := len(hs) - 1; r >= 0; r-- {
			row--
			for _, c := range root.cols {
				if ht.rows[c].Nulls[row] {
					continue rows
				}
			}
			ht.link(hs[r], int32(row))
		}
	}
	return ht
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
