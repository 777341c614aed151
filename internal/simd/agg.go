package simd

import (
	"cmp"
	"math"
	"math/bits"
)

// Aggregation and grouping kernels for the batch-at-a-time consume path:
// instead of pushing every unpacked tuple through a chain of compiled
// closures, the vectorized aggregator evaluates each aggregate argument as
// a column vector and folds it here, column-at-a-time.
//
// Float folds are strictly sequential (no lane reassociation): the batch
// path must produce bit-identical sums to the tuple-at-a-time path, which
// accumulates in row order. Integer sums are exact, so their order does
// not matter.

// SumFloat64 folds a float vector into the running accumulator acc,
// skipping NULL positions, and returns the new accumulator plus the
// non-null count. Folding into acc (rather than summing the batch and
// adding once) keeps the addition order identical to the tuple path across
// batch boundaries, so results stay bit-identical. nulls may be nil. The
// order leaves no lanes to use, so there is no assembler version. Kept out
// of line, its one re-slice stays a check per call, outside the caller's
// loop over aggregates.
//
//dbvet:hotpath
//go:noinline
func SumFloat64(acc float64, vals []float64, nulls []bool) (float64, int64) {
	if nulls == nil {
		for _, v := range vals {
			acc += v
		}
		return acc, int64(len(vals))
	}
	nulls = nulls[:len(vals)]
	var cnt int64
	for i, v := range vals {
		if !nulls[i] {
			acc += v
			cnt++
		}
	}
	return acc, cnt
}

// CountNotNull counts the non-NULL positions. nulls may be nil.
//
//dbvet:hotpath
func CountNotNull(n int, nulls []bool) int64 {
	if nulls == nil {
		return int64(n)
	}
	var cnt int64
	for _, isNull := range nulls[:n] {
		if !isNull {
			cnt++
		}
	}
	return cnt
}

// MinMaxInt64 folds a vector into (min, max, any-non-null).
//
//dbvet:hotpath
func MinMaxInt64(vals []int64, nulls []bool) (mn, mx int64, any bool) {
	if nulls == nil {
		if len(vals) == 0 {
			return 0, 0, false
		}
		mn, mx = minMaxI64DenseFn(vals)
		return mn, mx, true
	}
	return minMaxInt64Masked(vals, nulls)
}

// minMaxInt64Dense folds a non-empty vector. Integer min/max is
// associative, so the assembler version may fold lanes in any order and
// still match this sequential loop exactly. The masked fold has no
// assembler version: a NULL test per row leaves it a scalar loop, which
// Go compiles as well as hand-written code.
func minMaxInt64Dense(vals []int64) (mn, mx int64) {
	mn, mx = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

func minMaxInt64Masked(vals []int64, nulls []bool) (mn, mx int64, any bool) {
	for i, v := range vals {
		if nulls[i] {
			continue
		}
		if !any {
			mn, mx, any = v, v, true
			continue
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx, any
}

// MinMaxFloat64 folds a vector into (min, max, any-non-null) in the sort
// order's total order (cmp.Compare), where NaN sorts below every number:
// the minimum is NaN if any value is, the maximum ignores NaN unless every
// value is NaN. The answer is thus the same however the values are split
// into batches and workers and whatever their order; of equal values
// (-0.0 and +0.0, NaNs with other payloads) the first is kept.
//
//dbvet:hotpath
func MinMaxFloat64(vals []float64, nulls []bool) (mn, mx float64, any bool) {
	if nulls == nil {
		if len(vals) == 0 {
			return 0, 0, false
		}
		mn, mx = minMaxF64DenseFn(vals)
		return mn, mx, true
	}
	return minMaxF64MaskFn(vals, nulls)
}

// minMaxFloat64Dense folds a non-empty vector sequentially. Unlike the
// integer fold it is not reassociable bit for bit — which of two equal
// values (±0.0, two NaNs) is kept depends on fold order — so the assembler
// version keeps this exact element order: its speedup comes from
// MINSD/MAXSD and the removal of bounds checks, not from lanes.
func minMaxFloat64Dense(vals []float64) (mn, mx float64) {
	mn, mx = vals[0], vals[0]
	for _, v := range vals[1:] {
		if cmp.Less(v, mn) {
			mn = v
		}
		if cmp.Less(mx, v) {
			mx = v
		}
	}
	return mn, mx
}

func minMaxFloat64Masked(vals []float64, nulls []bool) (mn, mx float64, any bool) {
	for i, v := range vals {
		if nulls[i] {
			continue
		}
		if !any {
			mn, mx, any = v, v, true
			continue
		}
		if cmp.Less(v, mn) {
			mn = v
		}
		if cmp.Less(mx, v) {
			mx = v
		}
	}
	return mn, mx, any
}

// GroupCount bumps each row's group counter.
//
//dbvet:hotpath
func GroupCount(counts []int64, gids []uint32) {
	for _, g := range gids {
		counts[g]++
	}
}

// GroupCountNulls bumps the counter of each NULL row's group.
//
//dbvet:hotpath
func GroupCountNulls(counts []int64, gids []uint32, nulls []bool) {
	nulls = nulls[:len(gids)]
	for i, g := range gids {
		if nulls[i] {
			counts[g]++
		}
	}
}

// GroupSumFloat64 scatter-adds a float vector's non-NULL values into
// per-group accumulators: one read-modify-write per row. A group's count
// of rows, and of NULL ones, is kept once per batch by the caller, not
// per aggregate.
//
//dbvet:hotpath
func GroupSumFloat64(sums []float64, gids []uint32, vals []float64, nulls []bool) {
	vals = vals[:len(gids)]
	if nulls == nil {
		for i, g := range gids {
			sums[g] += vals[i]
		}
		return
	}
	nulls = nulls[:len(gids)]
	for i, g := range gids {
		if !nulls[i] {
			sums[g] += vals[i]
		}
	}
}

// SumBound is n·max(|lo|, |hi|) for lo ≤ hi, the most a sum of n values
// in [lo, hi] moves an int64, and whether it is below 2^63, so that adding
// such a sum to a partial whose own bound leaves room cannot wrap.
// |MinInt64| is 2^63: a range that reaches it never has room.
//
//dbvet:hotpath
func SumBound(n int, lo, hi int64) (uint64, bool) {
	hw, b := bits.Mul64(uint64(n), max(uint64(max(hi, 0)), -uint64(min(lo, 0))))
	return b, hw == 0 && b < 1<<63
}

// GroupAddInt64 scatter-adds the non-NULL values into per-group int64
// partials, wrapping: exact where SumBound has shown room. One
// read-modify-write per row, as GroupSumFloat64.
//
//dbvet:hotpath
func GroupAddInt64(sums []int64, gids []uint32, vals []int64, nulls []bool) {
	vals = vals[:len(gids)]
	if nulls == nil {
		for i, g := range gids {
			sums[g] += vals[i]
		}
		return
	}
	nulls = nulls[:len(gids)]
	for i, g := range gids {
		if !nulls[i] {
			sums[g] += vals[i]
		}
	}
}

// SumInt64 folds an integer vector, skipping NULL positions, into the
// running sum acc, a 128-bit two's complement integer (acc[0] the low
// word, acc[1] the high one), in registers: the fold of an aggregation
// without GROUP BY. The sum is exact, so every fold order yields the same
// cell. nulls may be nil.
//
//dbvet:hotpath
func SumInt64(acc [2]uint64, vals []int64, nulls []bool) [2]uint64 {
	lo, hi := acc[0], acc[1]
	var c uint64
	if nulls == nil {
		for _, v := range vals {
			lo, c = bits.Add64(lo, uint64(v), 0)
			hi += uint64(v>>63) + c // the sign extension, plus the carry
		}
		return [2]uint64{lo, hi}
	}
	nulls = nulls[:len(vals)]
	for i, v := range vals {
		if !nulls[i] {
			lo, c = bits.Add64(lo, uint64(v), 0)
			hi += uint64(v>>63) + c
		}
	}
	return [2]uint64{lo, hi}
}

// GroupSumInt64 scatter-adds an integer vector into per-group 128-bit
// sums (SumInt64's cells), for a batch the int64 partials cannot take.
//
//dbvet:hotpath
func GroupSumInt64(sums [][2]uint64, gids []uint32, vals []int64, nulls []bool) {
	vals = vals[:len(gids)]
	if nulls != nil {
		nulls = nulls[:len(gids)]
	}
	var c uint64
	for i, g := range gids {
		if nulls != nil && nulls[i] {
			continue
		}
		s, v := &sums[g], vals[i]
		s[0], c = bits.Add64(s[0], uint64(v), 0)
		s[1] += uint64(v>>63) + c
	}
}

// GroupMinMaxInt64 scatter-folds a vector into per-group min/max.
//
//dbvet:hotpath
func GroupMinMaxInt64(mins, maxs []int64, seen []bool, gids []uint32, vals []int64, nulls []bool) {
	vals = vals[:len(gids)]
	if nulls != nil {
		nulls = nulls[:len(gids)]
	}
	for i, g := range gids {
		if nulls != nil && nulls[i] {
			continue
		}
		v := vals[i]
		if !seen[g] {
			mins[g], maxs[g], seen[g] = v, v, true
			continue
		}
		if v < mins[g] {
			mins[g] = v
		}
		if v > maxs[g] {
			maxs[g] = v
		}
	}
}

// GroupMinMaxFloat64 scatter-folds a vector into per-group min/max, by
// MinMaxFloat64's rule.
//
//dbvet:hotpath
func GroupMinMaxFloat64(mins, maxs []float64, seen []bool, gids []uint32, vals []float64, nulls []bool) {
	vals = vals[:len(gids)]
	if nulls != nil {
		nulls = nulls[:len(gids)]
	}
	for i, g := range gids {
		if nulls != nil && nulls[i] {
			continue
		}
		v := vals[i]
		if !seen[g] {
			mins[g], maxs[g], seen[g] = v, v, true
			continue
		}
		if cmp.Less(v, mins[g]) {
			mins[g] = v
		}
		if cmp.Less(maxs[g], v) {
			maxs[g] = v
		}
	}
}

// Mix64 is the splitmix64 finalizer: the shared scalar hash of the join
// hash table, its tag filter and the vectorized grouping/probing kernels.
// All of them must agree on it, so it lives here.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashInt64 hashes a batch of int64 keys into out (len(out) == len(vals)):
// the vectorized hash phase of batch hash-join probes and integer group-by
// key assignment.
//
//dbvet:hotpath
func HashInt64(vals []int64, out []uint64) {
	hashI64Fn(vals, out)
}

func hashInt64Portable(vals []int64, out []uint64) {
	for i, v := range vals {
		out[i] = Mix64(uint64(v))
	}
}

// HashFloat64 hashes a batch of float64 keys by bit pattern into out
// (len(out) == len(vals)): the vectorized hash phase of float group-by
// key assignment. math.Float64bits(v) and the raw little-endian load the
// assembler kernel performs are the same 8 bytes, so both dispatch legs
// agree.
//
//dbvet:hotpath
func HashFloat64(vals []float64, out []uint64) {
	hashF64Fn(vals, out)
}

func hashFloat64Portable(vals []float64, out []uint64) {
	for i, v := range vals {
		out[i] = Mix64(math.Float64bits(v))
	}
}

// HashCombine folds the hash hv of a row's next key cell into the row's
// running hash h. Rotating h first makes the fold depend on column order —
// (a, b) and (b, a) hash apart — and keeps equal cells from cancelling:
// for an odd rotation rotl(v, r) ^ v is zero only for v = 0 and v = ^0, so
// (x, x) does not collapse to Mix64(0) as h ^ hv would. The rotation is 23
// bits, not one: Mix64 nearly commutes with doubling a small integer
// (Mix64(2x) == rotl(Mix64(x), 1) for one x in sixteen), which would make
// (a, 2c) and (c, 2a) collide.
func HashCombine(h, hv uint64) uint64 { return Mix64(bits.RotateLeft64(h, 23) ^ hv) }

// HashCombineInt64 folds a batch of int64 key columns into the running
// group hashes: hs[i] = HashCombine(hs[i], Mix64(uint64(vals[i]))). This
// is the multi-column key hash chain of exec's group and join tables; the
// formula must match the scalar per-row combination exec uses for
// nullable columns (exec.foldKeyHash).
//
//dbvet:hotpath
func HashCombineInt64(hs []uint64, vals []int64) {
	hashCombineI64Fn(hs, vals)
}

func hashCombineInt64Portable(hs []uint64, vals []int64) {
	for i, v := range vals {
		hs[i] = HashCombine(hs[i], Mix64(uint64(v)))
	}
}

// HashCombineFloat64 is HashCombineInt64 over float64 bit patterns.
//
//dbvet:hotpath
func HashCombineFloat64(hs []uint64, vals []float64) {
	hashCombineF64Fn(hs, vals)
}

func hashCombineFloat64Portable(hs []uint64, vals []float64) {
	for i, v := range vals {
		hs[i] = HashCombine(hs[i], Mix64(math.Float64bits(v)))
	}
}

// hashStrSeed is the FNV-64 offset basis, the seed of HashStr.
const hashStrSeed = 14695981039346656037

// HashStr hashes a string byte-wise (FNV-1 style) and finalizes with
// Mix64: the string-cell hash of exec's key identity, for group keys and
// join keys alike.
func HashStr(s string) uint64 {
	var h uint64 = hashStrSeed
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return Mix64(h)
}
