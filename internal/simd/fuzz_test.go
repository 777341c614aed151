package simd

import (
	"encoding/binary"
	"math"
	"testing"
)

// Differential fuzzing for the find/reduce kernel families: every input is
// evaluated three ways — a naive per-element oracle written independently
// of the kernels, the dispatched entry point (asm when active), and, on
// amd64 CPUs with AVX2, the assembly wrappers called directly via the
// fuzzFindAlt/fuzzReduceAlt hooks (so the asm is exercised even under
// GODEBUG=cpu.avx2=off). Any divergence is a bug in normalization, the
// portable SWAR loops, or the assembly.

// fuzzFindAlt and fuzzReduceAlt mirror Find/Reduce but force the AVX2
// kernels; installed by an init in fuzz_hooks_amd64_test.go when the CPU
// supports AVX2, nil elsewhere.
var (
	fuzzFindAlt   func(data []byte, width, n int, op Op, c1, c2 uint64, base uint32) []uint32
	fuzzReduceAlt func(data []byte, width int, op Op, c1, c2 uint64, m []uint32) []uint32
	// fuzzMinMaxAlt is MinMaxFloat64 on the AVX2 kernels (nil without them).
	fuzzMinMaxAlt func(vals []float64, nulls []bool) (mn, mx float64, any bool)
)

// evalU is the oracle: does the width-truncated unsigned value v satisfy
// op against the untruncated constants?
func fuzzEvalU(v uint64, op Op, c1, c2 uint64) bool {
	switch op {
	case OpEq:
		return v == c1
	case OpNe:
		return v != c1
	case OpLt:
		return v < c1
	case OpLe:
		return v <= c1
	case OpGt:
		return v > c1
	case OpGe:
		return v >= c1
	default:
		return v >= c1 && v <= c2
	}
}

func fuzzEvalI(v int64, op Op, c1, c2 int64) bool {
	switch op {
	case OpEq:
		return v == c1
	case OpNe:
		return v != c1
	case OpLt:
		return v < c1
	case OpLe:
		return v <= c1
	case OpGt:
		return v > c1
	case OpGe:
		return v >= c1
	default:
		return v >= c1 && v <= c2
	}
}

func fuzzLoadU(data []byte, width, i int) uint64 {
	switch width {
	case 1:
		return uint64(data[i])
	case 2:
		return uint64(binary.LittleEndian.Uint16(data[2*i:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(data[4*i:]))
	default:
		return binary.LittleEndian.Uint64(data[8*i:])
	}
}

func eqPos(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// selVector derives a sorted, unique match vector over [0, n) from the
// fuzzer-controlled selector bytes.
func selVector(sel []byte, n int) []uint32 {
	if len(sel) == 0 {
		sel = []byte{0xa5}
	}
	m := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		if sel[i%len(sel)]>>(uint(i)%8)&1 == 1 {
			m = append(m, uint32(i))
		}
	}
	return m
}

func FuzzFindKernels(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 255, 254, 128, 127, 63, 64, 65, 9}, byte(6), uint64(2), uint64(200), uint32(0))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, byte(0), uint64(1), uint64(0), uint32(1<<30))
	f.Add(make([]byte, 300), byte(1), uint64(0), uint64(0), uint32(7))
	f.Fuzz(func(t *testing.T, data []byte, opB byte, c1, c2 uint64, base uint32) {
		op := Op(opB % 7)
		for _, width := range []int{1, 2, 4, 8} {
			n := len(data) / width
			var want []uint32
			for i := 0; i < n; i++ {
				if fuzzEvalU(fuzzLoadU(data, width, i), op, c1, c2) {
					want = append(want, base+uint32(i))
				}
			}
			got := Find(data, width, n, op, c1, c2, base, nil)
			if !eqPos(got, want) {
				t.Fatalf("Find width=%d op=%d c1=%d c2=%d: got %d matches want %d",
					width, op, c1, c2, len(got), len(want))
			}
			if fuzzFindAlt != nil {
				alt := fuzzFindAlt(data, width, n, op, c1, c2, base)
				if !eqPos(alt, want) {
					t.Fatalf("AVX2 find width=%d op=%d diverges: got %d matches want %d",
						width, op, len(alt), len(want))
				}
			}
		}

		// Signed 64-bit over the same bytes.
		n := len(data) / 8
		col := make([]int64, n)
		for i := range col {
			col[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var wantI []uint32
		for i, v := range col {
			if fuzzEvalI(v, op, int64(c1), int64(c2)) {
				wantI = append(wantI, base+uint32(i))
			}
		}
		if got := FindInt64(col, op, int64(c1), int64(c2), base, nil); !eqPos(got, wantI) {
			t.Fatalf("FindInt64 op=%d: got %d matches want %d", op, len(got), len(wantI))
		}

		// Bitmap positions, both polarities, with a ragged tail.
		bm := make([]uint64, (len(data)+7)/8)
		for i, b := range data {
			bm[i/8] |= uint64(b) << (8 * (uint(i) % 8))
		}
		nb := len(data) * 8
		if nb > 13 {
			nb -= 13
		}
		for _, wantSet := range []bool{true, false} {
			var wantB []uint32
			for i := 0; i < nb; i++ {
				if BitmapGet(bm, uint32(i)) == wantSet {
					wantB = append(wantB, base+uint32(i))
				}
			}
			if got := FindBitmap(bm, nb, wantSet, base, nil); !eqPos(got, wantB) {
				t.Fatalf("FindBitmap wantSet=%v: got %d matches want %d", wantSet, len(got), len(wantB))
			}
		}
	})
}

func FuzzReduceKernels(f *testing.F) {
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 1, 2, 3, 200, 100}, []byte{0xff, 0x0f}, byte(6), uint64(3), uint64(9))
	f.Add(make([]byte, 256), []byte{0xaa}, byte(2), uint64(1), uint64(0))
	f.Fuzz(func(t *testing.T, data, sel []byte, opB byte, c1, c2 uint64) {
		op := Op(opB % 7)
		for _, width := range []int{1, 2, 4, 8} {
			n := len(data) / width
			m := selVector(sel, n)
			var want []uint32
			for _, p := range m {
				if fuzzEvalU(fuzzLoadU(data, width, int(p)), op, c1, c2) {
					want = append(want, p)
				}
			}
			got := Reduce(data, width, op, c1, c2, append([]uint32(nil), m...))
			if !eqPos(got, want) {
				t.Fatalf("Reduce width=%d op=%d c1=%d c2=%d: got %d matches want %d",
					width, op, c1, c2, len(got), len(want))
			}
			if fuzzReduceAlt != nil {
				alt := fuzzReduceAlt(data, width, op, c1, c2, append([]uint32(nil), m...))
				if !eqPos(alt, want) {
					t.Fatalf("AVX2 reduce width=%d op=%d diverges: got %d matches want %d",
						width, op, len(alt), len(want))
				}
			}
		}

		// Signed 64-bit reduce.
		n := len(data) / 8
		col := make([]int64, n)
		for i := range col {
			col[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		m := selVector(sel, n)
		var wantI []uint32
		for _, p := range m {
			if fuzzEvalI(col[p], op, int64(c1), int64(c2)) {
				wantI = append(wantI, p)
			}
		}
		if got := ReduceInt64(col, op, int64(c1), int64(c2), append([]uint32(nil), m...)); !eqPos(got, wantI) {
			t.Fatalf("ReduceInt64 op=%d: got %d matches want %d", op, len(got), len(wantI))
		}

		// Bitmap reduce, both polarities.
		bm := make([]uint64, (len(data)+7)/8)
		for i, b := range data {
			bm[i/8] |= uint64(b) << (8 * (uint(i) % 8))
		}
		mb := selVector(sel, len(data)*8)
		for _, wantSet := range []bool{true, false} {
			var wantB []uint32
			for _, p := range mb {
				if BitmapGet(bm, p) == wantSet {
					wantB = append(wantB, p)
				}
			}
			if got := ReduceBitmap(bm, wantSet, append([]uint32(nil), mb...)); !eqPos(got, wantB) {
				t.Fatalf("ReduceBitmap wantSet=%v: got %d matches want %d", wantSet, len(got), len(wantB))
			}
		}
	})
}

// minMaxRule is the MIN/MAX oracle, stated on the values rather than as a
// fold: NaN sorts below every number, so the minimum is the first NaN if
// there is one and otherwise the first value equal to the least number;
// the maximum is the first value equal to the greatest number, or the
// first NaN when there is no number. (Equal values — ±0.0, NaN payloads —
// are told apart by position only.)
func minMaxRule(vals []float64, nulls []bool) (mn, mx float64, any bool) {
	var present, numbers []float64
	for i, v := range vals {
		if nulls == nil || !nulls[i] {
			present = append(present, v)
			if !math.IsNaN(v) {
				numbers = append(numbers, v)
			}
		}
	}
	if len(present) == 0 {
		return 0, 0, false
	}
	first := func(vs []float64, eq func(float64) bool) float64 {
		for _, v := range vs {
			if eq(v) {
				return v
			}
		}
		panic("no such value")
	}
	if len(numbers) == 0 {
		return present[0], present[0], true
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range numbers {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	mn = first(numbers, func(v float64) bool { return v == lo })
	if len(numbers) < len(present) {
		mn = first(present, math.IsNaN)
	}
	return mn, first(numbers, func(v float64) bool { return v == hi }), true
}

// FuzzMinMaxKernels holds MinMaxFloat64 — dispatched, portable, and on
// the AVX2 kernels where the CPU has them — to minMaxRule bit for bit, over
// arbitrary bit patterns (every NaN payload, ±0.0, ±Inf) with and without
// a NULL mask.
func FuzzMinMaxKernels(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, []byte{0x02})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0xf8, 0xff}, []byte{})
	f.Fuzz(func(t *testing.T, data, sel []byte) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var nulls []bool
		if len(sel) > 0 {
			nulls = make([]bool, len(vals))
			for i := range nulls {
				nulls[i] = sel[i%len(sel)]>>(uint(i)%8)&1 == 1
			}
		}
		wmn, wmx, wany := minMaxRule(vals, nulls)
		check := func(leg string, mn, mx float64, any bool) {
			if any != wany || any && (math.Float64bits(mn) != math.Float64bits(wmn) || math.Float64bits(mx) != math.Float64bits(wmx)) {
				t.Fatalf("%s over %v (nulls %v): (%v, %v, %v), want (%v, %v, %v)", leg, vals, nulls, mn, mx, any, wmn, wmx, wany)
			}
		}
		mn, mx, any := MinMaxFloat64(vals, nulls)
		check("dispatched", mn, mx, any)
		if nulls != nil {
			mn, mx, any = minMaxFloat64Masked(vals, nulls)
		} else if len(vals) > 0 {
			mn, mx = minMaxFloat64Dense(vals)
		}
		check("portable", mn, mx, any)
		if fuzzMinMaxAlt != nil {
			mn, mx, any = fuzzMinMaxAlt(vals, nulls)
			check("AVX2", mn, mx, any)
		}
	})
}

// FuzzUnpackKernels holds GatherWiden and GatherBytes — dispatched,
// portable, and on the AVX2 kernels where the CPU has them — to refWiden
// over arbitrary codes, widths and bases, with positions anywhere in
// [0, n) drawn from sel, on code vectors carrying exactly the 3 bytes of
// slack the kernels need.
func FuzzUnpackKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, []byte{0, 3, 9, 200, 7, 1, 2, 4, 6}, byte(1), uint64(1<<63-2))
	f.Add(make([]byte, 64), []byte{0xff, 0xfe, 0, 1}, byte(2), uint64(1<<63))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{5}, byte(4), ^uint64(0))
	f.Fuzz(func(t *testing.T, codes, sel []byte, widthB byte, base uint64) {
		width := []int{1, 2, 4}[widthB%3]
		n := len(codes) / width
		if n == 0 {
			return
		}
		data := append(codes[:n*width:n*width], 0, 0, 0)
		pos := make([]uint32, len(sel))
		for i, s := range sel {
			pos[i] = uint32((int(s) + i*31) % n)
		}
		want := refWiden(data, width, base, pos)
		for name, gather := range widenTwins() {
			got := make([]int64, len(pos))
			gather(data, n, width, base, pos, got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s w%d base %#x: out[%d] (pos %d of %d) = %d, want %d", name, width, base, i, pos[i], n, got[i], want[i])
				}
			}
		}
		if width != 1 {
			return
		}
		for name, gather := range bytesTwins() {
			got := make([]byte, len(pos))
			gather(data, n, pos, got)
			for i := range got {
				if got[i] != data[pos[i]] {
					t.Fatalf("%s codes: out[%d] (pos %d of %d) = %d, want %d", name, i, pos[i], n, got[i], data[pos[i]])
				}
			}
		}
	})
}
