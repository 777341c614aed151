package exec

import (
	"testing"

	"datablocks/internal/core"
	"datablocks/internal/simd"
	"datablocks/internal/types"
)

// TestGroupTableGrowAndProbe drives the table through several doublings
// with adversarial hashes (all landing on the same initial slot) and
// verifies every gid stays reachable by its hash's probe chain.
func TestGroupTableGrowAndProbe(t *testing.T) {
	var tab groupTable
	const n = 10_000
	hash := func(i int) uint64 { return uint64(i)*2654435761 | 1 }
	for i := 0; i < n; i++ {
		tab.insert(hash(i), uint32(i))
	}
	if tab.used != n {
		t.Fatalf("used = %d want %d", tab.used, n)
	}
	if len(tab.slots)&(len(tab.slots)-1) != 0 {
		t.Fatalf("slot count %d not a power of two", len(tab.slots))
	}
	if 4*tab.used >= 3*len(tab.slots) {
		t.Fatalf("load factor too high: %d used in %d slots", tab.used, len(tab.slots))
	}
	for i := 0; i < n; i++ {
		h := hash(i)
		pos := h & tab.mask
		for tab.slots[pos] != 0 && tab.hashes[pos] != h {
			pos = (pos + 1) & tab.mask
		}
		if tab.slots[pos]-1 != uint32(i) {
			t.Fatalf("hash(%d): pos=%d slot=%d", i, pos, tab.slots[pos])
		}
	}

	// Colliding hashes must coexist: same hash, distinct gids, both on the
	// probe chain (callers disambiguate by key verification).
	var dup groupTable
	dup.insert(42, 0)
	dup.insert(42, 1)
	dup.insert(42+64, 2) // same initial slot in the 64-slot table
	seen := map[uint32]bool{}
	i := uint64(42) & dup.mask
	for dup.slots[i] != 0 {
		seen[dup.slots[i]-1] = true
		i = (i + 1) & dup.mask
	}
	for gid := uint32(0); gid < 3; gid++ {
		if !seen[gid] {
			t.Fatalf("gid %d not reachable on probe chain", gid)
		}
	}
	if dup.displaced == 0 {
		t.Fatal("displacement telemetry not counting")
	}
}

// TestGroupTableEmptyProbe: a fresh ensure()d table misses every probe
// without panicking.
func TestGroupTableEmptyProbe(t *testing.T) {
	var tab groupTable
	tab.ensure()
	i := uint64(0xdeadbeef) & tab.mask
	if tab.slots[i] != 0 {
		t.Fatal("fresh table not empty")
	}
}

// TestJoinChainsSurviveGrow: 20 000 build rows over 700 keys, a third of
// them on one hot key. A semi/anti build sink resolves them batch by batch
// into a table that starts at its minimum size and grows: every key keeps
// the entry id it got first, since an inner join's chains are indexed by
// it. An inner build of the same rows kept by two sinks links every
// entry's rows, across segments and sinks, into one complete chain in
// ascending row order, and an absent key has no entry.
func TestJoinChainsSurviveGrow(t *testing.T) {
	const rows, spread, hot, batch = 20_000, 700, int64(1_000_007), 1000
	keyOf := func(row int) int64 {
		if row%3 == 0 {
			return hot
		}
		return int64(row % spread)
	}
	kinds, live, cols := []types.Kind{types.Int64}, []bool{true}, []int{0}
	b := core.Batch{Cols: []core.BatchCol{{ColumnData: core.ColumnData{Kind: types.Int64}}}}
	fill := func(from, n int) *core.Batch {
		b.N, b.Cols[0].Ints = n, b.Cols[0].Ints[:0]
		for r := from; r < from+n; r++ {
			b.Cols[0].Ints = append(b.Cols[0].Ints, keyOf(r))
		}
		return &b
	}

	keys := newBuildSink(kinds, live, cols, false)
	idOf := map[int64]uint32{}
	for from := 0; from < rows; from += batch {
		fill(from, batch)
		bindBatch(keys.kt.keys, &b, cols)
		for r, id := range keys.kt.resolve(batch) {
			k := keyOf(from + r)
			if first, seen := idOf[k]; !seen {
				idOf[k] = id
			} else if id != first {
				t.Fatalf("row %d: key %d resolved to entry %d, first to %d", from+r, k, id, first)
			}
		}
	}
	if len(keys.kt.slots) <= groupTableMinSize {
		t.Fatalf("table never grew: %d slots", len(keys.kt.slots))
	}
	if keys.kt.entries != len(idOf) || keys.kt.used != len(idOf) {
		t.Fatalf("%d entries, %d slots used for %d distinct keys", keys.kt.entries, keys.kt.used, len(idOf))
	}

	// The inner build: the first sink keeps rows 0..split-1, the second
	// the rest; the second sink's row ids start at the first's segment
	// count times segRows.
	const split = 12_345
	sinks := []*buildSink{newBuildSink(kinds, live, cols, true), newBuildSink(kinds, live, cols, true)}
	want := map[int64][]int32{}
	for si, span := range [][2]int{{0, split}, {split, rows}} {
		base := 0
		if si == 1 {
			base = (split+segRows-1)/segRows*segRows - split
		}
		for from := span[0]; from < span[1]; from += batch {
			n := min(batch, span[1]-from)
			sinks[si].keep(fill(from, n))
			for r := from; r < from+n; r++ {
				want[keyOf(r)] = append(want[keyOf(r)], int32(base+r))
			}
		}
	}
	ht := linkRows(sinks, rows)
	if ht.entries != len(want) || ht.used != len(want) {
		t.Fatalf("%d entries, %d slots used for %d distinct keys", ht.entries, ht.used, len(want))
	}
	k := &ht.keys[0]
	k.nulls = nil
	for key, ids := range want {
		k.ints = []int64{key}
		e := ht.lookup(simd.Mix64(uint64(key)), 0)
		if e < 0 {
			t.Fatalf("key %d: no entry", key)
		}
		i := 0
		for row := ht.first[e]; row >= 0; row = ht.next[row] {
			if i >= len(ids) || ids[i] != row {
				t.Fatalf("key %d: chain position %d is row %d, want %v", key, i, row, ids)
			}
			i++
		}
		if i != len(ids) {
			t.Fatalf("key %d: chain has %d rows, want %d", key, i, len(ids))
		}
	}
	k.ints = []int64{12345}
	if ht.lookup(simd.Mix64(12345), 0) != -1 {
		t.Fatal("absent key has an entry")
	}
}

// unmix64 inverts simd.Mix64: each xorshift and each odd multiplication of
// the splitmix64 finalizer is a bijection.
func unmix64(x uint64) uint64 {
	// inverse is the multiplicative inverse of odd c modulo 2^64: Newton's
	// iteration doubles the correct low bits, from 3 for inv = c.
	inverse := func(c uint64) uint64 {
		inv := c
		for i := 0; i < 5; i++ {
			inv *= 2 - c*inv
		}
		return inv
	}
	x ^= x>>31 ^ x>>62
	x *= inverse(0x94d049bb133111eb)
	x ^= x>>27 ^ x>>54
	x *= inverse(0xbf58476d1ce4e5b9)
	x ^= x>>30 ^ x>>60
	return x
}

// EqualHashTwin returns the y2 for which the two-column integer key
// (x2, y2) has the combined hash of (x, y), solved as in
// TestEqualHashDistinctKeysNeverMerge; the join tests of package exec_test
// build their colliding keys with it.
func EqualHashTwin(x, y, x2 int64) int64 {
	h := simd.HashCombine(simd.Mix64(uint64(x)), simd.Mix64(uint64(y)))
	rot := unmix64(simd.HashCombine(simd.Mix64(uint64(x2)), 0))
	return int64(unmix64(unmix64(h) ^ rot))
}

// TestEqualHashDistinctKeysNeverMerge feeds the aggregator key pairs that
// provably share their combined hash — for each (i, i+pairs) a twin
// (i+pairs, y) with y solved from simd.HashCombine's inverse — in batches
// small enough that collisions are met both inside one batch and against
// groups stored by earlier batches, across several table doublings. Every
// distinct pair must keep its own group and its own count.
func TestEqualHashDistinctKeysNeverMerge(t *testing.T) {
	kinds := []types.Kind{types.Int64, types.Int64}
	node := &AggNode{GroupBy: []int{0, 1}, Aggs: []AggSpec{{Func: AggCount}}}
	a := newAggregator(node, kinds, []*checked{nil})
	const pairs = 3000
	hash := func(x, y int64) uint64 { return simd.HashCombine(simd.Mix64(uint64(x)), simd.Mix64(uint64(y))) }
	var xs, ys []int64
	for i := int64(0); i < pairs; i++ {
		// HashCombine(h, hv) is Mix64(rot(h) ^ hv), so rot(h) is
		// unmix64(HashCombine(h, 0)): solve for the hv, and through Mix64's
		// inverse for the y, that meets (i, i+pairs).
		x2 := i + pairs
		rot := unmix64(simd.HashCombine(simd.Mix64(uint64(x2)), 0))
		y2 := int64(unmix64(unmix64(hash(i, i+pairs)) ^ rot))
		if hash(x2, y2) != hash(i, i+pairs) {
			t.Fatalf("(%d, %d) does not collide with (%d, %d)", x2, y2, i, i+pairs)
		}
		// (i, i+pairs) three times, its twin twice, interleaved.
		xs = append(xs, i, x2, i, x2, i)
		ys = append(ys, i+pairs, y2, i+pairs, y2, i+pairs)
	}
	for from := 0; from < len(xs); from += 7 {
		to := min(from+7, len(xs))
		b := &core.Batch{N: to - from, Cols: []core.BatchCol{
			{ColumnData: core.ColumnData{Kind: types.Int64, Ints: xs[from:to]}},
			{ColumnData: core.ColumnData{Kind: types.Int64, Ints: ys[from:to]}},
		}}
		a.consumeBatch(b)
	}
	if a.groups != 2*pairs {
		t.Fatalf("%d groups, want %d: equal-hash keys merged or split", a.groups, 2*pairs)
	}
	res := a.finalize([]types.Kind{types.Int64, types.Int64, types.Int64})
	for g := 0; g < res.NumRows(); g++ {
		x, y, cnt := res.Cols[0].Ints[g], res.Cols[1].Ints[g], res.Cols[2].Ints[g]
		want := int64(3)
		if x >= pairs {
			want = 2
		}
		if cnt != want {
			t.Fatalf("group (%d,%d): count %d, want %d", x, y, cnt, want)
		}
	}
	if a.displaced == 0 {
		t.Fatal("colliding groups were never displaced past their home slot")
	}
}

// TestGroupByEqualColumnsNeedsNoReprobes: GROUP BY (x, x) over 20 000
// distinct x resolves every row on its first probe. The verification pass
// collects the rows whose stored hash matched another key's; with a
// combine that cancels equal cells every (x, x) hashes alike, each row is
// collected, and each re-probe walks the whole chain — quadratic.
func TestGroupByEqualColumnsNeedsNoReprobes(t *testing.T) {
	const n = 20_000
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
	}
	node := &AggNode{GroupBy: []int{0, 1}, Aggs: []AggSpec{{Func: AggCount}}}
	a := newAggregator(node, []types.Kind{types.Int64, types.Int64}, []*checked{nil})
	a.consumeBatch(&core.Batch{N: n, Cols: []core.BatchCol{{ColumnData: core.ColumnData{Kind: types.Int64, Ints: xs}}, {ColumnData: core.ColumnData{Kind: types.Int64, Ints: xs}}}})
	if a.groups != n {
		t.Fatalf("%d groups, want %d", a.groups, n)
	}
	if cap(a.badRows) != 0 {
		t.Fatalf("verification flagged rows for re-probing (scratch grew to %d)", cap(a.badRows))
	}
}
