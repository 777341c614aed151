package exec

import (
	"datablocks/internal/simd"
	"datablocks/internal/types"
)

// hashTable is the materialized build side of a hash join. The embedded
// groupTable holds one slot per distinct key hash, whose entry id is the
// lowest build row with that hash; next links every further row with the
// same hash in ascending row order (-1 ends the chain). Candidates
// therefore come back in build-row order, which fixes the join's emission
// order and with it every downstream float sum. Rows of one chain share a
// hash, not necessarily a key: the prober verifies each against keys,
// whose stored side aliases the build result's key columns. Build rows
// with a NULL key are never linked in, so NULL keys never join.
//
// tags is a 2^16-bit filter over the top hash bits — our analogue of
// HyPer's tagged hash-table pointers (Appendix E, [20]) — that probes test
// before touching the table and vectorized scans test early, to drop probe
// tuples before unpacking them.
type hashTable struct {
	groupTable
	next  []int32
	build *Result
	keys  []keyCol
	tags  [1024]uint64 // 2^16 tag bits
}

func buildHashTable(build *Result, keyCols []int) *hashTable {
	n := build.NumRows()
	ht := &hashTable{build: build, keys: make([]keyCol, len(keyCols)), next: make([]int32, n)}
	hs := make([]uint64, n)
	for i, c := range keyCols {
		col := &build.Cols[c]
		k := &ht.keys[i]
		*k = keyCol{
			kind: col.Kind, canonZero: true,
			nulls: col.Nulls, ints: col.Ints, floats: col.Floats, strs: col.Strs,
			gInt: col.Ints, gStr: col.Strs,
		}
		if col.Kind == types.Float64 {
			k.gInt = make([]int64, n)
			for r, f := range col.Floats {
				k.gInt[r] = int64(floatKeyBits(f))
			}
		}
		hashKeyCol(hs, i == 0, k)
	}
	ht.reserve(n)
	// Rows are linked in descending order, each becoming the new head of
	// its hash's chain, so every chain reads in ascending row order.
rows:
	for row := n - 1; row >= 0; row-- {
		for i := range ht.keys {
			if ht.keys[i].nulls[row] {
				continue rows
			}
		}
		ht.link(hs[row], int32(row))
	}
	return ht
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
