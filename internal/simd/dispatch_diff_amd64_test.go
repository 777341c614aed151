//go:build amd64

package simd

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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
		for _, p := range []float64{0, 0.3, 1} {
			nulls := randNulls(rng, n, p)
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
	if len(info) != len(kernelFamilies) || len(info) != 19 {
		t.Fatalf("DispatchInfo reports %d families, want the %d with assembler (19)", len(info), len(kernelFamilies))
	}
	if !slices.IsSortedFunc(info, func(a, b KernelDispatch) int { return strings.Compare(a.Kernel, b.Kernel) }) {
		t.Fatalf("DispatchInfo is not sorted by kernel name: %v", info)
	}
	want := map[bool]string{true: "avx2", false: "portable"}[avx2Active]
	for _, d := range info {
		if d.Impl != want {
			t.Fatalf("kernel %s reports %q, want %q (avx2Active=%v)", d.Kernel, d.Impl, want, avx2Active)
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

// kernelPair is one AVX2 kernel and its portable twin, each bound to
// inputs prepared for one shape and size.
type kernelPair struct {
	name           string
	avx2, portable func()
}

var (
	sinkMatches []uint32
	sinkI64     int64
	sinkF64     float64
)

// kernelPairs builds every AVX2 kernel's pair over n rows. Finds keep
// about half the rows (≠ keeps nearly all); reduces thin a match vector
// holding every k-th row, restored by a copy before each call on both
// sides.
func kernelPairs(n int) []kernelPair {
	rng := rand.New(rand.NewSource(int64(n)))
	data := make([]byte, n*8)
	rng.Read(data)
	ints := make([]int64, n)
	for i := range ints {
		ints[i] = int64(rng.Uint64())
	}
	bm := make([]uint64, BitmapWords(n))
	for i := range bm {
		bm[i] = rng.Uint64()
	}
	out := EnsureCap(nil, n+8)
	var ps []kernelPair
	add := func(name string, avx2, portable func()) {
		ps = append(ps, kernelPair{name, avx2, portable})
	}

	add("find.w1.between",
		func() { sinkMatches = findBetweenW1AVX2(data[:n], n, 64, 191, 0, out[:0]) },
		func() { sinkMatches = findBetweenW1(data[:n], n, 64, 191, 0, out[:0]) })
	add("find.w1.ne",
		func() { sinkMatches = findNeW1AVX2(data[:n], n, data[0], 0, out[:0]) },
		func() { sinkMatches = findNeW1(data[:n], n, data[0], 0, out[:0]) })
	add("find.w2.between",
		func() { sinkMatches = findBetweenW2AVX2(data[:2*n], n, 1<<14, 3<<14, 0, out[:0]) },
		func() { sinkMatches = findBetweenW2(data[:2*n], n, 1<<14, 3<<14, 0, out[:0]) })
	add("find.w2.ne",
		func() { sinkMatches = findNeW2AVX2(data[:2*n], n, 7, 0, out[:0]) },
		func() { sinkMatches = findNeW2(data[:2*n], n, 7, 0, out[:0]) })
	add("find.w4.between",
		func() { sinkMatches = findBetweenW4AVX2(data[:4*n], n, 1<<30, 3<<30, 0, out[:0]) },
		func() { sinkMatches = findBetweenW4(data[:4*n], n, 1<<30, 3<<30, 0, out[:0]) })
	add("find.w4.ne",
		func() { sinkMatches = findNeW4AVX2(data[:4*n], n, 7, 0, out[:0]) },
		func() { sinkMatches = findNeW4(data[:4*n], n, 7, 0, out[:0]) })
	add("find.w8.between",
		func() { sinkMatches = findBetweenW8AVX2(data, n, 1<<62, 3<<62, 0, out[:0]) },
		func() { sinkMatches = findBetweenW8(data, n, 1<<62, 3<<62, 0, out[:0]) })
	add("find.w8.ne",
		func() { sinkMatches = findNeW8AVX2(data, n, 7, 0, out[:0]) },
		func() { sinkMatches = findNeW8(data, n, 7, 0, out[:0]) })
	add("find.int64.between",
		func() { sinkMatches = findBetweenI64AVX2(ints, -1<<62, 1<<62, 0, out[:0]) },
		func() { sinkMatches = findBetweenI64(ints, -1<<62, 1<<62, 0, out[:0]) })
	add("find.int64.ne",
		func() { sinkMatches = findNeI64AVX2(ints, 7, 0, out[:0]) },
		func() { sinkMatches = findNeI64(ints, 7, 0, out[:0]) })
	add("find.bitmap",
		func() { sinkMatches = findBitmapAVX2(bm, n, true, 0, out[:0]) },
		func() { sinkMatches = findBitmapPortable(bm, n, true, 0, out[:0]) })

	for _, k := range []int{1, 3, 10} {
		var m0 []uint32
		for i := 0; i < n; i += k {
			m0 = append(m0, uint32(i))
		}
		m := make([]uint32, len(m0))
		reduce := func(name string, avx2, portable func([]uint32) []uint32) {
			add(fmt.Sprintf("%s/1-in-%d", name, k),
				func() { copy(m, m0); sinkMatches = avx2(m) },
				func() { copy(m, m0); sinkMatches = portable(m) })
		}
		reduce("reduce.w1.between",
			func(m []uint32) []uint32 { return reduceBetweenW1AVX2(data[:n], 64, 191, m) },
			func(m []uint32) []uint32 { return reduceBetweenW1(data[:n], 64, 191, m) })
		reduce("reduce.w1.ne",
			func(m []uint32) []uint32 { return reduceNeW1AVX2(data[:n], data[0], m) },
			func(m []uint32) []uint32 { return reduceNeW1(data[:n], data[0], m) })
		reduce("reduce.w2.between",
			func(m []uint32) []uint32 { return reduceBetweenW2AVX2(data[:2*n], 1<<14, 3<<14, m) },
			func(m []uint32) []uint32 { return reduceBetweenW2(data[:2*n], 1<<14, 3<<14, m) })
		reduce("reduce.w2.ne",
			func(m []uint32) []uint32 { return reduceNeW2AVX2(data[:2*n], 7, m) },
			func(m []uint32) []uint32 { return reduceNeW2(data[:2*n], 7, m) })
		reduce("reduce.w4.between",
			func(m []uint32) []uint32 { return reduceBetweenW4AVX2(data[:4*n], 1<<30, 3<<30, m) },
			func(m []uint32) []uint32 { return reduceBetweenW4(data[:4*n], 1<<30, 3<<30, m) })
		reduce("reduce.w4.ne",
			func(m []uint32) []uint32 { return reduceNeW4AVX2(data[:4*n], 7, m) },
			func(m []uint32) []uint32 { return reduceNeW4(data[:4*n], 7, m) })
		reduce("reduce.w8.between",
			func(m []uint32) []uint32 { return reduceBetweenW8AVX2(data, 1<<62, 3<<62, m) },
			func(m []uint32) []uint32 { return reduceBetweenW8(data, 1<<62, 3<<62, m) })
		reduce("reduce.w8.ne",
			func(m []uint32) []uint32 { return reduceNeW8AVX2(data, 7, m) },
			func(m []uint32) []uint32 { return reduceNeW8(data, 7, m) })
		reduce("reduce.int64.between",
			func(m []uint32) []uint32 { return reduceBetweenI64AVX2(ints, -1<<62, 1<<62, m) },
			func(m []uint32) []uint32 { return reduceBetweenI64(ints, -1<<62, 1<<62, m) })
		reduce("reduce.int64.ne",
			func(m []uint32) []uint32 { return reduceNeI64AVX2(ints, 7, m) },
			func(m []uint32) []uint32 { return reduceNeI64(ints, 7, m) })
		reduce("reduce.bitmap",
			func(m []uint32) []uint32 { return reduceBitmapAVX2(bm, true, m) },
			func(m []uint32) []uint32 { return reduceBitmapPortable(bm, true, m) })
	}

	// Min/max over wide (every int64), sorted and narrow (0–99) integers.
	sorted, narrow := slices.Clone(ints), make([]int64, n)
	slices.Sort(sorted)
	for i := range narrow {
		narrow[i] = rng.Int63n(100)
	}
	shapes := map[string][]int64{"wide": ints, "sorted": sorted, "narrow": narrow}
	for _, shape := range []string{"wide", "sorted", "narrow"} {
		iv := shapes[shape]
		fv := make([]float64, n)
		for i, v := range iv {
			fv[i] = float64(v)
		}
		add("agg.minmax_i64/"+shape,
			func() { sinkI64, _ = minMaxInt64DenseAVX2(iv) },
			func() { sinkI64, _ = minMaxInt64Dense(iv) })
		add("agg.minmax_f64/"+shape,
			func() { sinkF64, _ = minMaxFloat64DenseAVX2(fv) },
			func() { sinkF64, _ = minMaxFloat64Dense(fv) })
	}
	floats := make([]float64, n)
	for i := range floats {
		floats[i] = rng.NormFloat64()
	}
	for _, pct := range []int{0, 10, 50} {
		nulls := randNulls(rng, n, float64(pct)/100)
		add(fmt.Sprintf("agg.minmax_f64.masked/nulls=%d%%", pct),
			func() { sinkF64, _, _ = minMaxFloat64MaskedAVX2(floats, nulls) },
			func() { sinkF64, _, _ = minMaxFloat64Masked(floats, nulls) })
	}

	// Unpack at Q1's density (98.5 %), every row and every tenth row, from
	// codes with the kernels' slack behind them.
	codes := make([]byte, 4*n+3)
	rng.Read(codes)
	wide, narrowOut := make([]int64, n), make([]byte, n)
	for _, d := range []struct {
		name string
		pos  []uint32
	}{{"1-in-1", randPositions(rng, n, 1, true)}, {"98.5%", randPositions(rng, n, 0.985, true)}, {"1-in-10", randMatches(rng, n, 0.1)}} {
		pos := d.pos
		for _, w := range []int{1, 2, 4} {
			base := uint64(1)<<63 - uint64(w)
			add(fmt.Sprintf("unpack.w%d/%s", w, d.name),
				func() { gatherWidenAVX2(codes, n, w, base, pos, wide) },
				func() { gatherWiden(codes, n, w, base, pos, wide) })
		}
		add("unpack.codes/"+d.name,
			func() { gatherBytesAVX2(codes, n, pos, narrowOut) },
			func() { gatherBytes(codes, n, pos, narrowOut) })
	}

	hs := make([]uint64, n)
	add("hash.i64",
		func() { hashInt64AVX2(ints, hs) },
		func() { hashInt64Portable(ints, hs) })
	add("hash.f64",
		func() { hashFloat64AVX2(floats, hs) },
		func() { hashFloat64Portable(floats, hs) })
	add("hash.combine_i64",
		func() { hashCombineInt64AVX2(hs, ints) },
		func() { hashCombineInt64Portable(hs, ints) })
	add("hash.combine_f64",
		func() { hashCombineFloat64AVX2(hs, floats) },
		func() { hashCombineFloat64Portable(hs, floats) })
	return ps
}

// BenchmarkKernelPairs times every AVX2 kernel against its portable twin
// on the same inputs, at 32, 256, 2 048 and 8 192 rows: an assembler
// kernel stays while it wins on the shapes the engine feeds it.
//
//	go test -run '^$' -bench KernelPairs -benchtime 30ms -count 5 ./internal/simd
func BenchmarkKernelPairs(b *testing.B) {
	if !cpuHasAVX2 {
		b.Skip("host CPU lacks AVX2")
	}
	for _, n := range []int{32, 256, 2048, 8192} {
		for _, p := range kernelPairs(n) {
			b.Run(fmt.Sprintf("%s/n=%d/avx2", p.name, n), func(b *testing.B) {
				for range b.N {
					p.avx2()
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/go", p.name, n), func(b *testing.B) {
				for range b.N {
					p.portable()
				}
			})
		}
	}
}
