package exec

import (
	"datablocks/internal/core"
	"datablocks/internal/types"
)

// codeTable resolves batches whose keys arrive as 1-byte codes (a coded
// scan, core.ScanSpec.Codes) without hashing, through the key table's
// direct front (keyTable.dir): the codes of a row combine into one index,
// c0 + d0·(c1 + d1·(c2 + …)) over the key domains' sizes d, which the
// front maps to the group id. The front is sized to one set of domains'
// combinations — one block's — and cleared when a batch brings another.
// An index is resolved on its first row through the one-row hashed probe,
// with the row's key decoded to values, so groups are created in the same
// first-seen row order as on the hashed path and equal keys in different
// blocks meet in the same group.
type codeTable struct {
	doms   []*core.Attr // the key domains the front is valid for
	stride []uint16     // d0·…·d(k-1) per key column
	codes  [][]byte     // the bound batch's codes per key column
	combos []uint16     // per-row indexes (scratch)
	gids   []uint32     // per-row group ids (scratch)
	// The decoded key cells of the row being resolved, bound to the keys'
	// probe side as one-row vectors.
	ints []int64
	strs []string
}

// bindCodes points the code table at coded batch b's key codes. When b
// comes from another block than the front was filled from, it sizes the
// front to the block's combinations, reusing its array, and clears it.
func (a *aggregator) bindCodes(b *core.Batch) {
	ct, keys := &a.codes, a.node.GroupBy
	if ct.doms == nil {
		ct.doms, ct.stride, ct.codes = make([]*core.Attr, len(keys)), make([]uint16, len(keys)), make([][]byte, len(keys))
		ct.ints, ct.strs = make([]int64, len(keys)), make([]string, len(keys))
	}
	same := true
	for k, g := range keys {
		ct.codes[k] = b.Cols[g].Codes
		same = same && b.Cols[g].Domain == ct.doms[k]
	}
	if same {
		return
	}
	combos := 1
	for k, g := range keys {
		// The scan admits at most core.MaxCodeCombos combinations, so every
		// index, and every stride that matters, fits 16 bits.
		ct.doms[k] = b.Cols[g].Domain
		ct.stride[k] = uint16(combos)
		combos *= ct.doms[k].CodeCard()
	}
	a.dir = resize(a.dir, combos)
	clear(a.dir)
}

// assignCodes resolves the n rows of the bound coded batch to group ids
// through the front: once a block's key combination has a group, each of
// its rows costs one load — no hash, no verification, no string. A
// combination the front lacks takes the one-row hashed probe.
//
//dbvet:hotpath
func (a *aggregator) assignCodes(n int) []uint32 {
	ct := &a.codes
	ct.gids = resize(ct.gids, n)
	if len(ct.codes) == 1 { // the index is the code
		frontIDs(a, ct.codes[0][:n], ct.gids)
		return ct.gids
	}
	ct.combos = resize(ct.combos, n)
	combos := ct.combos[:n]
	clear(combos)
	stride := ct.stride[:len(ct.codes)]
	for k, codes := range ct.codes {
		foldCodes(combos, codes, stride[k])
	}
	frontIDs(a, combos, ct.gids)
	return ct.gids
}

// frontIDs sets gids[r] to the group of front index idx[r] (assignCodes).
//
//dbvet:hotpath
func frontIDs[T uint8 | uint16](a *aggregator, idx []T, gids []uint32) {
	gids = gids[:len(idx)]
	// Every index is inside the front; the compare proves it.
	dir := a.dir
	for r, x := range idx {
		var id uint32
		if int(x) < len(dir) {
			if id = dir[x]; id == 0 {
				id = a.resolveCode(r) + 1
				dir[x] = id
			}
		}
		gids[r] = id - 1
	}
}

// foldCodes adds one key column's codes, times the column's stride, into
// the rows' combination indexes. Kept out of line, its one re-slice stays
// a check per key column, outside the row loop.
//
//dbvet:hotpath
//go:noinline
func foldCodes(combos []uint16, codes []byte, stride uint16) {
	codes = codes[:len(combos)]
	for r, c := range codes {
		combos[r] += uint16(c) * stride
	}
}

// resolveCode returns the group of row r of the bound coded batch: its
// codes are decoded and probed as a one-row batch, which creates the group
// if it is new.
func (a *aggregator) resolveCode(r int) uint32 {
	ct := &a.codes
	for k := range a.keys {
		key, code := &a.keys[k], ct.codes[k][r]
		key.nulls = nil
		if key.kind == types.String {
			ct.strs[k] = ct.doms[k].CodeStr(code)
			key.strs = ct.strs[k : k+1]
		} else {
			ct.ints[k] = ct.doms[k].CodeInt(code)
			key.ints = ct.ints[k : k+1]
		}
	}
	return a.resolve(1)[0]
}
