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
		pos, ok := tab.find(hash(i))
		if !ok || tab.slots[pos]-1 != uint32(i) {
			t.Fatalf("hash(%d): pos=%d ok=%v", i, pos, ok)
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

// TestJoinChainsSurviveGrow links build rows into a hash table that grows
// several times on the way (no reserve), with only a handful of distinct
// hashes so every chain is long: after each doubling every chain must
// still read complete and in ascending build-row order.
func TestJoinChainsSurviveGrow(t *testing.T) {
	const rows, spread = 20_000, 700
	hashOf := func(row int) uint64 {
		if row%3 == 0 {
			return 0xfeed000000000007 // one hot hash shared by a third of the rows
		}
		return simd.Mix64(uint64(row % spread))
	}
	ht := &hashTable{next: make([]int32, rows)}
	want := map[uint64][]int32{}
	for row := rows - 1; row >= 0; row-- {
		ht.link(hashOf(row), int32(row))
	}
	for row := 0; row < rows; row++ {
		want[hashOf(row)] = append(want[hashOf(row)], int32(row))
	}
	if len(ht.slots) <= groupTableMinSize {
		t.Fatalf("table never grew: %d slots", len(ht.slots))
	}
	if ht.used != len(want) {
		t.Fatalf("%d slots used for %d distinct hashes", ht.used, len(want))
	}
	for h, rows := range want {
		i := 0
		for row := ht.head(h); row >= 0; row = ht.next[row] {
			if i >= len(rows) || rows[i] != row {
				t.Fatalf("hash %#x: chain position %d is row %d, want %v", h, i, row, rows)
			}
			i++
		}
		if i != len(rows) {
			t.Fatalf("hash %#x: chain has %d rows, want %d", h, i, len(rows))
		}
	}
	if ht.head(12345) != -1 {
		t.Fatal("absent hash has a chain")
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

// TestEqualHashDistinctKeysNeverMerge feeds the aggregator key pairs that
// provably share their combined hash — for each (i, i+pairs) a twin
// (i+pairs, y) with y solved from simd.HashCombine's inverse — in batches
// small enough that collisions are met both inside one batch and against
// groups stored by earlier batches, across several table doublings. Every
// distinct pair must keep its own group and its own count.
func TestEqualHashDistinctKeysNeverMerge(t *testing.T) {
	kinds := []types.Kind{types.Int64, types.Int64}
	node := &AggNode{GroupBy: []int{0, 1}, Aggs: []AggSpec{{Func: AggCount}}}
	a := newAggregator(node, kinds, []*checked{nil}, nil, true)
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
			{Kind: types.Int64, Ints: xs[from:to]},
			{Kind: types.Int64, Ints: ys[from:to]},
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
	a := newAggregator(node, []types.Kind{types.Int64, types.Int64}, []*checked{nil}, nil, true)
	a.consumeBatch(&core.Batch{N: n, Cols: []core.BatchCol{{Kind: types.Int64, Ints: xs}, {Kind: types.Int64, Ints: xs}}})
	if a.groups != n {
		t.Fatalf("%d groups, want %d", a.groups, n)
	}
	if cap(a.badRows) != 0 {
		t.Fatalf("verification flagged rows for re-probing (scratch grew to %d)", cap(a.badRows))
	}
}
