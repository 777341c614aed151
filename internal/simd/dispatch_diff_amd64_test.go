//go:build amd64

package simd

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests: every AVX2 kernel must be bit-identical to its
// portable counterpart on arbitrary inputs — including NULL masks, NaN and
// signed-zero payloads, accumulator seeding, and ragged tails. They call
// both implementations directly, so they exercise the assembler even on
// the GODEBUG=cpu.avx2=off CI leg (dispatch state doesn't matter, only
// hardware capability).

func requireAVX2(t *testing.T) {
	t.Helper()
	if !cpuHasAVX2 {
		t.Skip("host CPU lacks AVX2")
	}
}

func randLens(rng *rand.Rand) []int {
	lens := []int{0, 1, 7, 8, 15, 31, 32, 33, 63, 64, 65, 255, 1024}
	for i := 0; i < 8; i++ {
		lens = append(lens, rng.Intn(4096))
	}
	return lens
}

func eqU32(t *testing.T, label string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d want %d", label, i, got[i], want[i])
		}
	}
}

func TestDiffFindKernels(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(101))
	for _, n := range randLens(rng) {
		data := make([]byte, n*8)
		rng.Read(data)
		base := uint32(rng.Intn(1 << 20))
		lo, hi := rng.Uint64(), rng.Uint64()
		if lo > hi {
			lo, hi = hi, lo
		}
		out1 := EnsureCap(nil, n+8)
		out2 := EnsureCap(nil, n+8)

		eqU32(t, "find.w1.between",
			findBetweenW1AVX2(data[:n], n, uint8(lo), uint8(hi), base, out1),
			findBetweenW1(data[:n], n, uint8(lo), uint8(hi), base, out2))
		eqU32(t, "find.w1.ne",
			findNeW1AVX2(data[:n], n, uint8(lo), base, out1[:0]),
			findNeW1(data[:n], n, uint8(lo), base, out2[:0]))
		eqU32(t, "find.w2.between",
			findBetweenW2AVX2(data[:n*2], n, uint16(lo), uint16(hi), base, out1[:0]),
			findBetweenW2(data[:n*2], n, uint16(lo), uint16(hi), base, out2[:0]))
		eqU32(t, "find.w2.ne",
			findNeW2AVX2(data[:n*2], n, uint16(lo), base, out1[:0]),
			findNeW2(data[:n*2], n, uint16(lo), base, out2[:0]))
		eqU32(t, "find.w4.between",
			findBetweenW4AVX2(data[:n*4], n, uint32(lo), uint32(hi), base, out1[:0]),
			findBetweenW4(data[:n*4], n, uint32(lo), uint32(hi), base, out2[:0]))
		eqU32(t, "find.w4.ne",
			findNeW4AVX2(data[:n*4], n, uint32(lo), base, out1[:0]),
			findNeW4(data[:n*4], n, uint32(lo), base, out2[:0]))
		eqU32(t, "find.w8.between",
			findBetweenW8AVX2(data, n, lo, hi, base, out1[:0]),
			findBetweenW8(data, n, lo, hi, base, out2[:0]))
		eqU32(t, "find.w8.ne",
			findNeW8AVX2(data, n, lo, base, out1[:0]),
			findNeW8(data, n, lo, base, out2[:0]))

		col := make([]int64, n)
		for i := range col {
			col[i] = int64(rng.Uint64())
		}
		slo, shi := int64(rng.Uint64()), int64(rng.Uint64())
		if slo > shi {
			slo, shi = shi, slo
		}
		eqU32(t, "find.int64.between",
			findBetweenI64AVX2(col, slo, shi, base, out1[:0]),
			findBetweenI64(col, slo, shi, base, out2[:0]))
		c := slo
		if n > 0 && rng.Intn(2) == 0 {
			c = col[rng.Intn(n)]
		}
		eqU32(t, "find.int64.ne",
			findNeI64AVX2(col, c, base, out1[:0]),
			findNeI64(col, c, base, out2[:0]))

		bm := make([]uint64, BitmapWords(n))
		for i := range bm {
			bm[i] = rng.Uint64()
		}
		for _, wantSet := range []bool{true, false} {
			eqU32(t, "find.bitmap",
				findBitmapAVX2(bm, n, wantSet, base, out1[:0]),
				findBitmapPortable(bm, n, wantSet, base, out2[:0]))
		}
	}
}

// randMatches builds a sorted random subset of [0, n) as a match vector.
func randMatches(rng *rand.Rand, n int, sel float64) []uint32 {
	m := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < sel {
			m = append(m, uint32(i))
		}
	}
	return m
}

func TestDiffReduceKernels(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(202))
	for _, n := range randLens(rng) {
		for _, sel := range []float64{0, 0.01, 0.5, 1} {
			data := make([]byte, n*8)
			rng.Read(data)
			lo, hi := rng.Uint64(), rng.Uint64()
			if lo > hi {
				lo, hi = hi, lo
			}
			m := randMatches(rng, n, sel)
			m2 := append([]uint32(nil), m...)
			eqU32(t, "reduce.w1.between",
				reduceBetweenW1AVX2(data[:n], uint8(lo), uint8(hi), append([]uint32(nil), m...)),
				reduceBetweenW1(data[:n], uint8(lo), uint8(hi), append([]uint32(nil), m...)))
			eqU32(t, "reduce.w1.ne",
				reduceNeW1AVX2(data[:n], uint8(lo), append([]uint32(nil), m...)),
				reduceNeW1(data[:n], uint8(lo), append([]uint32(nil), m...)))
			eqU32(t, "reduce.w2.between",
				reduceBetweenW2AVX2(data[:n*2], uint16(lo), uint16(hi), append([]uint32(nil), m...)),
				reduceBetweenW2(data[:n*2], uint16(lo), uint16(hi), append([]uint32(nil), m...)))
			eqU32(t, "reduce.w2.ne",
				reduceNeW2AVX2(data[:n*2], uint16(lo), append([]uint32(nil), m...)),
				reduceNeW2(data[:n*2], uint16(lo), append([]uint32(nil), m...)))
			eqU32(t, "reduce.w4.between",
				reduceBetweenW4AVX2(data[:n*4], uint32(lo), uint32(hi), append([]uint32(nil), m...)),
				reduceBetweenW4(data[:n*4], uint32(lo), uint32(hi), append([]uint32(nil), m...)))
			eqU32(t, "reduce.w4.ne",
				reduceNeW4AVX2(data[:n*4], uint32(lo), append([]uint32(nil), m...)),
				reduceNeW4(data[:n*4], uint32(lo), append([]uint32(nil), m...)))
			eqU32(t, "reduce.w8.between",
				reduceBetweenW8AVX2(data, lo, hi, append([]uint32(nil), m...)),
				reduceBetweenW8(data, lo, hi, append([]uint32(nil), m...)))
			eqU32(t, "reduce.w8.ne",
				reduceNeW8AVX2(data, lo, append([]uint32(nil), m...)),
				reduceNeW8(data, lo, append([]uint32(nil), m...)))

			col := make([]int64, n)
			for i := range col {
				col[i] = rng.Int63n(1000) - 500
			}
			eqU32(t, "reduce.int64.between",
				reduceBetweenI64AVX2(col, -100, 100, append([]uint32(nil), m...)),
				reduceBetweenI64(col, -100, 100, append([]uint32(nil), m...)))
			eqU32(t, "reduce.int64.ne",
				reduceNeI64AVX2(col, 0, append([]uint32(nil), m...)),
				reduceNeI64(col, 0, append([]uint32(nil), m...)))

			bm := make([]uint64, BitmapWords(n))
			for i := range bm {
				bm[i] = rng.Uint64()
			}
			for _, wantSet := range []bool{true, false} {
				eqU32(t, "reduce.bitmap",
					reduceBitmapAVX2(bm, wantSet, append([]uint32(nil), m...)),
					reduceBitmapPortable(bm, wantSet, append([]uint32(nil), m2...)))
			}
		}
	}
}

// randFloats mixes ordinary values with NaN, infinities and signed zeros —
// the payloads that expose any fold-order deviation.
func randFloats(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		switch rng.Intn(10) {
		case 0:
			vals[i] = math.NaN()
		case 1:
			vals[i] = math.Inf(1)
		case 2:
			vals[i] = math.Inf(-1)
		case 3:
			vals[i] = math.Copysign(0, -1)
		case 4:
			vals[i] = 0
		default:
			vals[i] = rng.NormFloat64() * 1e6
		}
	}
	return vals
}

func randNulls(rng *rand.Rand, n int, p float64) []bool {
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = rng.Float64() < p
	}
	return nulls
}

func TestDiffAggKernels(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(303))
	for _, n := range randLens(rng) {
		vals := randFloats(rng, n)
		acc := rng.NormFloat64()

		gotS := sumFloat64DenseAVX2(acc, vals)
		wantS := sumFloat64Dense(acc, vals)
		if math.Float64bits(gotS) != math.Float64bits(wantS) {
			t.Fatalf("sum dense n=%d: %x want %x", n, math.Float64bits(gotS), math.Float64bits(wantS))
		}
		for _, p := range []float64{0, 0.3, 1} {
			nulls := randNulls(rng, n, p)
			gs, gc := sumFloat64MaskedAVX2(acc, vals, nulls)
			ws, wc := sumFloat64Masked(acc, vals, nulls)
			if math.Float64bits(gs) != math.Float64bits(ws) || gc != wc {
				t.Fatalf("sum masked n=%d p=%v: (%x,%d) want (%x,%d)",
					n, p, math.Float64bits(gs), gc, math.Float64bits(ws), wc)
			}

			gmn, gmx, gany := minMaxFloat64MaskedAVX2(vals, nulls)
			wmn, wmx, wany := minMaxFloat64Masked(vals, nulls)
			if math.Float64bits(gmn) != math.Float64bits(wmn) ||
				math.Float64bits(gmx) != math.Float64bits(wmx) || gany != wany {
				t.Fatalf("minmax f64 masked n=%d p=%v: (%v,%v,%v) want (%v,%v,%v)",
					n, p, gmn, gmx, gany, wmn, wmx, wany)
			}
		}
		if n > 0 {
			gmn, gmx := minMaxFloat64DenseAVX2(vals)
			wmn, wmx := minMaxFloat64Dense(vals)
			if math.Float64bits(gmn) != math.Float64bits(wmn) ||
				math.Float64bits(gmx) != math.Float64bits(wmx) {
				t.Fatalf("minmax f64 dense n=%d: (%v,%v) want (%v,%v)", n, gmn, gmx, wmn, wmx)
			}
		}

		ints := make([]int64, n)
		for i := range ints {
			ints[i] = int64(rng.Uint64())
		}
		if n > 0 {
			gmn, gmx := minMaxInt64DenseAVX2(ints)
			wmn, wmx := minMaxInt64Dense(ints)
			if gmn != wmn || gmx != wmx {
				t.Fatalf("minmax i64 dense n=%d: (%d,%d) want (%d,%d)", n, gmn, gmx, wmn, wmx)
			}
		}
		for _, p := range []float64{0, 0.3, 1} {
			nulls := randNulls(rng, n, p)
			gmn, gmx, gany := minMaxInt64MaskedAVX2(ints, nulls)
			wmn, wmx, wany := minMaxInt64Masked(ints, nulls)
			if gmn != wmn || gmx != wmx || gany != wany {
				t.Fatalf("minmax i64 masked n=%d p=%v: (%d,%d,%v) want (%d,%d,%v)",
					n, p, gmn, gmx, gany, wmn, wmx, wany)
			}
		}
	}
}

func TestDiffHashKernels(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(404))
	for _, n := range randLens(rng) {
		ints := make([]int64, n)
		for i := range ints {
			ints[i] = int64(rng.Uint64())
		}
		floats := randFloats(rng, n)

		got, want := make([]uint64, n), make([]uint64, n)
		hashInt64AVX2(ints, got)
		hashInt64Portable(ints, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("hash i64 n=%d [%d]: %x want %x", n, i, got[i], want[i])
			}
		}
		hashFloat64AVX2(floats, got)
		hashFloat64Portable(floats, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("hash f64 n=%d [%d]: %x want %x", n, i, got[i], want[i])
			}
		}

		seed := make([]uint64, n)
		for i := range seed {
			seed[i] = rng.Uint64()
		}
		copy(got, seed)
		copy(want, seed)
		hashCombineInt64AVX2(got, ints)
		hashCombineInt64Portable(want, ints)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("combine i64 n=%d [%d]: %x want %x", n, i, got[i], want[i])
			}
		}
		copy(got, seed)
		copy(want, seed)
		hashCombineFloat64AVX2(got, floats)
		hashCombineFloat64Portable(want, floats)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("combine f64 n=%d [%d]: %x want %x", n, i, got[i], want[i])
			}
		}
	}
}

func TestDispatchInfoCoherent(t *testing.T) {
	info := DispatchInfo()
	if len(info) != len(kernelFamilies) {
		t.Fatalf("DispatchInfo reports %d families, want %d", len(info), len(kernelFamilies))
	}
	for _, d := range info {
		if d.Impl != "avx2" && d.Impl != "portable" {
			t.Fatalf("kernel %s: bad impl %q", d.Kernel, d.Impl)
		}
		if d.Impl == "avx2" && !avx2Active {
			t.Fatalf("kernel %s reports avx2 but dispatch is disabled", d.Kernel)
		}
	}
	if avx2Active && CPUFeatureLevel() != "avx2" {
		t.Fatal("CPUFeatureLevel disagrees with avx2Active")
	}
	if !avx2Active && CPUFeatureLevel() != "baseline" {
		t.Fatal("CPUFeatureLevel disagrees with avx2Active")
	}
}

func TestGodebugParsing(t *testing.T) {
	cases := []struct {
		in  string
		off bool
	}{
		{"", false},
		{"cpu.avx2=off", true},
		{"cpu.all=off", true},
		{"gctrace=1,cpu.avx2=off", true},
		{"cpu.avx2=off,cpu.avx2=on", false},
		{"cpu.avx2=on,cpu.avx2=off", true},
		{"cpu.all=off,cpu.avx2=on", false},
		{"cpu.sse42=off", false},
	}
	for _, c := range cases {
		if got := godebugDisablesAVX2(c.in); got != c.off {
			t.Errorf("godebugDisablesAVX2(%q) = %v want %v", c.in, got, c.off)
		}
	}
}
