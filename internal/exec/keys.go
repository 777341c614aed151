package exec

import (
	"math"

	"datablocks/internal/core"
	"datablocks/internal/simd"
	"datablocks/internal/types"
)

// This file is the one key identity of internal/exec: a key is its
// column-wise combined 64-bit hash plus its raw typed cells. Group keys
// and join keys, batch rows and tuples, all hash through hashKeyCol,
// compare through verifyRow and enter a table through keyTable.resolve,
// so two paths cannot disagree about which rows share a key.

// keyCol is one key column of a keyTable. The stored side holds the
// column's cell for every entry (a group or a distinct join key), as flat
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
	// kind is populated; floats are kept as bit patterns in gInt.
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
		if null != c.gNull[id] {
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

// keyTable is the one hash-table layout of internal/exec: a groupTable
// with one slot per distinct key, whose entry id indexes the key's stored
// cells in keys, and the entry count. resolve is the only way a key
// enters it — a group of the aggregator, a distinct key of a join build,
// or another worker's entry (absorb) — so there is one notion of "the
// same key" for every operator. Entry ids are dense and issued in
// first-seen row order. A NULL cell is entered like any value and equals
// only NULL; that NULL never joins is the join prober's rule, not the
// table's.
//
// dir is the table's direct front: dir[i] holds entry+1 of the key whose
// index is i, 0 while there is none, so a key found there costs one load
// and no hash, slot walk or verification. A keyed table — a join's, over
// one integer key whose range lo..lo+len(dir)−1 the key pass knows — has
// no slots: key k's index is k − lo, and resolve enters keys there. The
// aggregator's coded batches index it by their code combination instead,
// in front of the hashed slots (aggregator.assignCodes).
type keyTable struct {
	groupTable
	keys    []keyCol
	entries int
	dir     []uint32
	lo      int64
	keyed   bool

	ids     []uint32 // per-row entry ids of the rows being resolved (scratch)
	hs      []uint64 // their combined key hashes (scratch)
	badRows []uint32 // rows flagged by column-wise verification (scratch)
}

// resolve returns the entry ids of the n rows bound to t.keys, entering
// the keys the table lacks: the key columns are hashed column-at-a-time
// into one combined hash per row, and each hash resolves to an entry
// verified against the stored key cells (so a collision can never merge
// two distinct keys). New entries are created in row order.
//
//dbvet:hotpath
func (t *keyTable) resolve(n int) []uint32 {
	t.ids = resize(t.ids, n)
	if t.keyed {
		return t.resolveKeyed(t.ids[:n])
	}
	t.hs = resize(t.hs, n)
	// hs and ids are re-sliced to n outside the loops, so every [r]
	// access below is proven in bounds.
	hs := t.hs[:n]
	ids := t.ids[:n]
	keys := t.keys
	for k := range keys {
		hashKeyCol(hs, k == 0, &keys[k])
	}
	// Probe the open-addressing table: flat array reads, no calls on the
	// hit path. Resolution is two-pass. Pass 1 assigns each row a
	// provisional entry by stored hash alone (an empty slot creates the
	// entry, in row order). Pass 2 then verifies every assignment
	// column-at-a-time against the stored key cells — the kind dispatch
	// runs once per column per batch instead of once per row — and the
	// mismatches re-probe with the full per-row verification: a 64-bit
	// hash collision (astronomically rare), or a join key's -0.0, stored
	// as +0.0. A collision can therefore never merge two distinct keys;
	// the only observable effect of deferring its resolution is the
	// colliding entry's first-seen position. The table slices are hoisted
	// out of the row loops and refreshed only after an entry is created
	// (inserting may grow the table).
	t.ensure()
	hashes, slots, mask := t.hashes, t.slots, t.mask
	for r, h := range hs {
		i := h & mask
		var id uint32
		for {
			s := slots[i]
			if s == 0 {
				id = t.newEntry(h, r)
				hashes, slots, mask = t.hashes, t.slots, t.mask
				break
			}
			if hashes[i] == h {
				id = s - 1
				break
			}
			i = (i + 1) & mask
		}
		ids[r] = id
	}
	// Every stored array of a column is re-sliced to its NULL flags'
	// length, the entry count, so a cell read after its flag is proven.
	bad := t.badRows[:0]
	for c := range keys {
		v := &keys[c]
		gNull := v.gNull
		switch v.kind {
		case types.Int64:
			ints, gInt := v.ints[:len(ids)], v.gInt[:len(gNull)]
			if v.nulls == nil {
				for r, g := range ids {
					if gNull[g] || gInt[g] != ints[r] {
						bad = append(bad, uint32(r))
					}
				}
			} else {
				nulls := v.nulls[:len(ids)]
				for r, g := range ids {
					if gNull[g] != nulls[r] || (!nulls[r] && gInt[g] != ints[r]) {
						bad = append(bad, uint32(r))
					}
				}
			}
		case types.Float64:
			floats, gInt := v.floats[:len(ids)], v.gInt[:len(gNull)]
			if v.nulls == nil {
				for r, g := range ids {
					if gNull[g] || gInt[g] != int64(math.Float64bits(floats[r])) {
						bad = append(bad, uint32(r))
					}
				}
			} else {
				nulls := v.nulls[:len(ids)]
				for r, g := range ids {
					if gNull[g] != nulls[r] || (!nulls[r] && gInt[g] != int64(math.Float64bits(floats[r]))) {
						bad = append(bad, uint32(r))
					}
				}
			}
		default:
			strs, gStr := v.strs[:len(ids)], v.gStr[:len(gNull)]
			if v.nulls == nil {
				for r, g := range ids {
					if gNull[g] || gStr[g] != strs[r] {
						bad = append(bad, uint32(r))
					}
				}
			} else {
				nulls := v.nulls[:len(ids)]
				for r, g := range ids {
					if gNull[g] != nulls[r] || (!nulls[r] && gStr[g] != strs[r]) {
						bad = append(bad, uint32(r))
					}
				}
			}
		}
	}
	t.badRows = bad[:0]
	// Re-probe the flagged rows with full verification. A row flagged by
	// more than one column appears more than once; the re-probe is
	// idempotent, so duplicates only repeat the (rare) walk.
	for _, br := range bad {
		r := int(br)
		h := hs[r]
		i := h & mask
		for {
			s := slots[i]
			if s == 0 {
				ids[r] = t.newEntry(h, r)
				hashes, slots, mask = t.hashes, t.slots, t.mask
				break
			}
			if hashes[i] == h && verifyRow(keys, s-1, r) {
				ids[r] = s - 1
				break
			}
			i = (i + 1) & mask
		}
	}
	return ids
}

// resolveKeyed is resolve for a keyed table: row r's key k is entry
// dir[k−lo]−1, entered there when it is new. The join build's scan keeps
// only non-NULL keys inside the front (its Between SARG); a key outside
// would get an entry of its own that no probe finds, as no probe key lies
// outside.
//
//dbvet:hotpath
func (t *keyTable) resolveKeyed(ids []uint32) []uint32 {
	ints, dir, lo := t.keys[0].ints[:len(ids)], t.dir, t.lo
	for r, k := range ints {
		i := uint64(k) - uint64(lo)
		if i >= uint64(len(dir)) {
			ids[r] = t.newEntry(0, r)
			continue
		}
		if dir[i] == 0 {
			dir[i] = t.newEntry(0, r) + 1
		}
		ids[r] = dir[i] - 1
	}
	return ids
}

// newEntry enters bound row r, whose key hash is h, as a new entry; a
// keyed table's caller indexes it in the front instead of the slots.
func (t *keyTable) newEntry(h uint64, r int) uint32 {
	id := uint32(t.entries)
	t.entries++
	for k := range t.keys {
		t.keys[k].storeRow(r)
	}
	if !t.keyed {
		t.insert(h, id)
	}
	return id
}

// absorb enters the keys of another worker's table o that t lacks, and
// returns the entry id in t of each of o's entries, in o's order: o's
// stored key cells are bound as t's probe side and resolved like a batch
// of o.entries rows, floats as the canonical bit patterns they are stored
// as (same hash, same equality).
func (t *keyTable) absorb(o *keyTable) []uint32 {
	for i := range t.keys {
		k, ok := &t.keys[i], &o.keys[i]
		k.nulls, k.ints, k.strs = ok.gNull, ok.gInt, ok.gStr
		if k.kind == types.Float64 {
			k.kind = types.Int64
		}
	}
	ids := t.resolve(o.entries)
	for i := range t.keys {
		k := &t.keys[i]
		k.kind, k.nulls, k.ints, k.strs = o.keys[i].kind, nil, nil, nil
	}
	return ids
}

// lookup returns the entry holding bound row r's key, whose hash is h, or
// -1: a walk of h's probe chain that verifies the row against each slot
// storing h. It enters nothing, and needs a table that has had a key
// resolved (the join prober reaches it only past a tag set from one).
//
//dbvet:hotpath
func (t *keyTable) lookup(h uint64, r int) int32 {
	// hashes re-sliced to the slot count: a slot's hash read after its
	// entry id needs no bounds check.
	hashes, slots, mask := t.hashes[:len(t.slots)], t.slots, t.mask
	for i := h & mask; slots[i] != 0; i = (i + 1) & mask {
		if hashes[i] == h && verifyRow(t.keys, slots[i]-1, r) {
			return int32(slots[i]) - 1
		}
	}
	return -1
}
