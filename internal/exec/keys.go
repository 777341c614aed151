package exec

import (
	"math"

	"datablocks/internal/core"
	"datablocks/internal/simd"
	"datablocks/internal/types"
)

// This file is the one key identity of internal/exec: a key is its
// column-wise combined 64-bit hash plus its raw typed cells. Group keys
// and join keys, batch rows and tuples, all hash through hashKeyCol and
// compare through verifyRow, so two paths cannot disagree about which
// rows share a key.

// keyCol is one key column of a hash table. The stored side holds the
// column's cell for every table entry (group id or build row), as flat
// typed arrays; the probe side is a view of the rows currently being
// hashed and looked up — a batch's column, a tuple's register (as a
// one-row vector) or another table's stored side — rebound by the owner
// before each probe.
type keyCol struct {
	kind types.Kind
	// canonZero folds -0.0 into +0.0 before a float is hashed or compared.
	// Join keys set it (SQL equality: -0.0 = +0.0); group keys do not, so
	// groups stay distinct by bit pattern. NaNs compare by payload in both.
	canonZero bool

	// Probe side; nulls == nil means no NULLs among the probed rows.
	nulls  []bool
	ints   []int64
	floats []float64
	strs   []string

	// Stored side, indexed by entry id. Only the array of the column's
	// kind is populated; floats are kept as bit patterns in gInt. gNull ==
	// nil means no entry has a NULL key (join build rows with NULL keys
	// are never entered, so NULL probe keys never match).
	gNull []bool
	gInt  []int64
	gStr  []string
}

// bindBatch points the probe side of keys at the batch columns cols.
func bindBatch(keys []keyCol, b *core.Batch, cols []int) {
	for i, c := range cols {
		k, col := &keys[i], &b.Cols[c]
		k.nulls, k.ints, k.floats, k.strs = col.Nulls, col.Ints, col.Floats, col.Strs
	}
}

// bindTuple points the probe side of keys at the tuple's registers cols,
// each as a one-row vector: the tuple-at-a-time chain probes with the
// same code as the batch chain, at n = 1.
func bindTuple(keys []keyCol, t *Tuple, cols []int) {
	for i, c := range cols {
		k := &keys[i]
		k.nulls, k.ints, k.floats, k.strs = t.Nulls[c:c+1], t.Ints[c:c+1], t.Floats[c:c+1], t.Strs[c:c+1]
	}
}

// nullKeyHash is the hash contribution of a NULL key cell.
const nullKeyHash = 0x9e3779b97f4a7c15

// floatKeyBits canonicalizes -0.0 to +0.0 so equal floats hash equally.
func floatKeyBits(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}

func (c *keyCol) floatBits(f float64) uint64 {
	if c.canonZero {
		return floatKeyBits(f)
	}
	return math.Float64bits(f)
}

// foldKeyHash combines one cell's hash hv into the row's running hash h.
func foldKeyHash(h uint64, first, null bool, hv uint64) uint64 {
	if null {
		hv = nullKeyHash
	}
	if first {
		return hv
	}
	return simd.HashCombine(h, hv)
}

// hashKeyCol folds the probe side of key column c into the per-row hashes
// hs (len(hs) rows): hs[r] = cell hash for the first column,
// simd.HashCombine(hs[r], cell hash) for every later one. A single integer
// key therefore hashes to Mix64(key) — what the join's tag filter tests
// during early probing.
// Dense integer and float columns run through the batched simd kernels.
//
//dbvet:hotpath
func hashKeyCol(hs []uint64, first bool, c *keyCol) {
	n := len(hs)
	switch c.kind {
	case types.Int64:
		ints := c.ints[:n]
		switch {
		case c.nulls != nil:
			nulls := c.nulls[:n]
			for r, v := range ints {
				hs[r] = foldKeyHash(hs[r], first, nulls[r], simd.Mix64(uint64(v)))
			}
		case first:
			simd.HashInt64(ints, hs)
		default:
			simd.HashCombineInt64(hs, ints)
		}
	case types.Float64:
		floats := c.floats[:n]
		switch {
		case c.nulls != nil:
			nulls := c.nulls[:n]
			for r, v := range floats {
				hs[r] = foldKeyHash(hs[r], first, nulls[r], simd.Mix64(c.floatBits(v)))
			}
		case c.canonZero:
			for r, v := range floats {
				hs[r] = foldKeyHash(hs[r], first, false, simd.Mix64(floatKeyBits(v)))
			}
		case first:
			simd.HashFloat64(floats, hs)
		default:
			simd.HashCombineFloat64(hs, floats)
		}
	default:
		strs := c.strs[:n]
		if c.nulls != nil {
			nulls := c.nulls[:n]
			for r, v := range strs {
				hs[r] = foldKeyHash(hs[r], first, nulls[r], simd.HashStr(v))
			}
			return
		}
		for r, v := range strs {
			hs[r] = foldKeyHash(hs[r], first, false, simd.HashStr(v))
		}
	}
}

// verifyRow reports whether probe row r's key cells equal the stored key
// of entry id. NULL equals only NULL; floats compare by (canonicalized)
// bit pattern.
//
//dbvet:hotpath
func verifyRow(keys []keyCol, id uint32, r int) bool {
	for k := range keys {
		c := &keys[k]
		null := c.nulls != nil && c.nulls[r]
		if null != (c.gNull != nil && c.gNull[id]) {
			return false
		}
		if null {
			continue
		}
		switch c.kind {
		case types.Int64:
			if c.gInt[id] != c.ints[r] {
				return false
			}
		case types.Float64:
			if c.gInt[id] != int64(c.floatBits(c.floats[r])) {
				return false
			}
		default:
			if c.gStr[id] != c.strs[r] {
				return false
			}
		}
	}
	return true
}

// storeRow appends probe row r's cell as the stored key of a new entry.
// NULL cells store a zero value, which is what the result renders.
func (c *keyCol) storeRow(r int) {
	null := c.nulls != nil && c.nulls[r]
	c.gNull = append(c.gNull, null)
	switch c.kind {
	case types.Int64:
		var v int64
		if !null {
			v = c.ints[r]
		}
		c.gInt = append(c.gInt, v)
	case types.Float64:
		var v int64
		if !null {
			v = int64(c.floatBits(c.floats[r]))
		}
		c.gInt = append(c.gInt, v)
	default:
		var v string
		if !null {
			v = c.strs[r]
		}
		c.gStr = append(c.gStr, v)
	}
}
