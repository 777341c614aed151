package simd

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var allOps = []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpBetween}

// refFind is the trivially correct reference implementation.
func refFind(vals []uint64, op Op, c1, c2 uint64, base uint32) []uint32 {
	var out []uint32
	for i, v := range vals {
		if refEval(v, op, c1, c2) {
			out = append(out, base+uint32(i))
		}
	}
	return out
}

func refEval(v uint64, op Op, c1, c2 uint64) bool {
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

func encode(vals []uint64, width int) []byte {
	// Pad the buffer so eight-byte loads beyond the last element stay in
	// bounds, mirroring how block vectors are allocated.
	data := make([]byte, len(vals)*width+8)
	for i, v := range vals {
		WriteUint(data, i, width, v)
	}
	return data
}

func randVals(r *rand.Rand, n, width int) []uint64 {
	max := maxFor(width)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = r.Uint64() & max
	}
	return vals
}

func equalU32(a, b []uint32) bool {
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

func TestFindAllWidthsAllOps(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 2, 4, 8} {
		for _, op := range allOps {
			for trial := 0; trial < 30; trial++ {
				n := r.Intn(70) // exercises tails and empty inputs
				vals := randVals(r, n, width)
				// Mix small-domain data so predicates actually select.
				if trial%2 == 0 {
					for i := range vals {
						vals[i] %= 16
					}
				}
				c1 := r.Uint64() & maxFor(width) % 20
				c2 := c1 + uint64(r.Intn(10))
				want := refFind(vals, op, c1, c2, 100)
				got := Find(encode(vals, width), width, n, op, c1, c2, 100, nil)
				if !equalU32(got, want) {
					t.Fatalf("Find width=%d op=%v c1=%d c2=%d n=%d:\n got %v\nwant %v\nvals %v",
						width, op, c1, c2, n, got, want, vals)
				}
			}
		}
	}
}

func TestFindBoundaryConstants(t *testing.T) {
	// Degenerate constants: domain min, domain max, out-of-domain, empty
	// between — all must be handled by normalization.
	for _, width := range []int{1, 2, 4, 8} {
		max := maxFor(width)
		vals := []uint64{0, 1, max / 2, max - 1, max, 0, max, 3}
		data := encode(vals, width)
		cases := []struct {
			op     Op
			c1, c2 uint64
		}{
			{OpLt, 0, 0}, {OpLe, 0, 0}, {OpGe, 0, 0}, {OpGt, max, 0},
			{OpGe, max, 0}, {OpLe, max, 0}, {OpEq, max, 0}, {OpEq, 0, 0},
			{OpNe, 0, 0}, {OpNe, max, 0}, {OpBetween, 5, 2}, {OpBetween, 0, max},
			{OpBetween, max, max}, {OpLt, max, 0}, {OpGt, 0, 0},
		}
		for _, c := range cases {
			want := refFind(vals, c.op, c.c1, c.c2, 0)
			got := Find(data, width, len(vals), c.op, c.c1, c.c2, 0, nil)
			if !equalU32(got, want) {
				t.Errorf("width=%d op=%v c1=%d c2=%d: got %v want %v", width, c.op, c.c1, c.c2, got, want)
			}
		}
	}
}

func TestFindAppendsToExisting(t *testing.T) {
	vals := []uint64{1, 5, 1, 9}
	out := []uint32{42}
	out = Find(encode(vals, 1), 1, len(vals), OpEq, 1, 0, 0, out)
	want := []uint32{42, 0, 2}
	if !equalU32(out, want) {
		t.Fatalf("got %v want %v", out, want)
	}
}

func TestFindPropertyQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	for _, width := range []int{1, 2, 4} {
		width := width
		f := func(raw []uint16, c1raw, c2raw uint16, opRaw uint8) bool {
			op := allOps[int(opRaw)%len(allOps)]
			max := maxFor(width)
			vals := make([]uint64, len(raw))
			for i, v := range raw {
				vals[i] = uint64(v) & max
			}
			c1 := uint64(c1raw) & max
			c2 := uint64(c2raw) & max
			want := refFind(vals, op, c1, c2, 7)
			got := Find(encode(vals, width), width, len(vals), op, c1, c2, 7, nil)
			return equalU32(got, want)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("width %d: %v", width, err)
		}
	}
}

func TestScalarVariantsMatchSWAR(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, width := range []int{1, 2, 4, 8} {
		for _, op := range allOps {
			n := 257
			vals := randVals(r, n, width)
			for i := range vals {
				vals[i] %= 64
			}
			data := encode(vals, width)
			c1, c2 := uint64(10), uint64(30)
			want := Find(data, width, n, op, c1, c2, 0, nil)
			if got := FindScalar(data, width, n, op, c1, c2, 0, nil); !equalU32(got, want) {
				t.Errorf("FindScalar width=%d op=%v mismatch", width, op)
			}
		}
	}
}

func TestReduceAllWidthsAllOps(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, width := range []int{1, 2, 4, 8} {
		for _, op := range allOps {
			for trial := 0; trial < 20; trial++ {
				n := 50 + r.Intn(50)
				vals := randVals(r, n, width)
				for i := range vals {
					vals[i] %= 32
				}
				data := encode(vals, width)
				// Start from a random subset of positions.
				var m []uint32
				for i := 0; i < n; i++ {
					if r.Intn(2) == 0 {
						m = append(m, uint32(i))
					}
				}
				c1 := uint64(r.Intn(16))
				c2 := c1 + uint64(r.Intn(8))
				var want []uint32
				for _, p := range m {
					if refEval(vals[p], op, c1, c2) {
						want = append(want, p)
					}
				}
				mm := append([]uint32(nil), m...)
				got := Reduce(data, width, op, c1, c2, mm)
				if !equalU32(got, want) {
					t.Fatalf("Reduce width=%d op=%v: got %v want %v", width, op, got, want)
				}
				mm = append([]uint32(nil), m...)
				got = ReduceScalar(data, width, op, c1, c2, mm)
				if !equalU32(got, want) {
					t.Fatalf("ReduceScalar width=%d op=%v: got %v want %v", width, op, got, want)
				}
			}
		}
	}
}

func TestFindReduceInt64(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	col := make([]int64, 300)
	for i := range col {
		col[i] = int64(r.Intn(41)) - 20 // includes negatives
	}
	for _, op := range allOps {
		c1, c2 := int64(-5), int64(7)
		var want []uint32
		for i, v := range col {
			if refEvalI(v, op, c1, c2) {
				want = append(want, uint32(i))
			}
		}
		got := FindInt64(col, op, c1, c2, 0, nil)
		if !equalU32(got, want) {
			t.Fatalf("FindInt64 op=%v: got %d want %d matches", op, len(got), len(want))
		}
		all := make([]uint32, len(col))
		for i := range all {
			all[i] = uint32(i)
		}
		if got3 := ReduceInt64(col, op, c1, c2, all); !equalU32(got3, want) {
			t.Fatalf("ReduceInt64 op=%v mismatch", op)
		}
	}
}

func refEvalI(v int64, op Op, c1, c2 int64) bool {
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

func TestFindInt64Extremes(t *testing.T) {
	col := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	got := FindInt64(col, OpLe, math.MaxInt64, 0, 0, nil)
	if len(got) != len(col) {
		t.Fatalf("Le max: got %d want %d", len(got), len(col))
	}
	got = FindInt64(col, OpGe, math.MinInt64, 0, 0, nil)
	if len(got) != len(col) {
		t.Fatalf("Ge min: got %d want %d", len(got), len(col))
	}
	got = FindInt64(col, OpLt, math.MinInt64, 0, 0, nil)
	if len(got) != 0 {
		t.Fatalf("Lt min: got %d want 0", len(got))
	}
	got = FindInt64(col, OpBetween, -1, 1, 0, nil)
	if !equalU32(got, []uint32{1, 2, 3}) {
		t.Fatalf("between: got %v", got)
	}
}

func TestFindFloat64(t *testing.T) {
	col := []float64{0.5, 1.5, 2.5, 3.5, math.NaN()}
	got := FindFloat64(col, OpBetween, 1.0, 3.0, 0, nil)
	if !equalU32(got, []uint32{1, 2}) {
		t.Fatalf("got %v", got)
	}
	// NaN never matches range predicates.
	got = FindFloat64(col, OpGe, 0, 0, 0, nil)
	if len(got) != 4 {
		t.Fatalf("NaN matched: %v", got)
	}
	w := 0
	m := []uint32{0, 1, 2, 3, 4}
	m = ReduceFloat64(col, OpGt, 1.0, 0, m)
	_ = w
	if !equalU32(m, []uint32{1, 2, 3}) {
		t.Fatalf("reduce got %v", m)
	}
}

func TestBitmapKernels(t *testing.T) {
	n := 200
	bm := make([]uint64, BitmapWords(n))
	r := rand.New(rand.NewSource(5))
	var setPos, clrPos []uint32
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			BitmapSet(bm, uint32(i))
			setPos = append(setPos, uint32(i))
		} else {
			clrPos = append(clrPos, uint32(i))
		}
	}
	if got := FindBitmap(bm, n, true, 0, nil); !equalU32(got, setPos) {
		t.Fatalf("FindBitmap set: got %d want %d", len(got), len(setPos))
	}
	if got := FindBitmap(bm, n, false, 0, nil); !equalU32(got, clrPos) {
		t.Fatalf("FindBitmap clear: got %d want %d", len(got), len(clrPos))
	}
	all := make([]uint32, n)
	for i := range all {
		all[i] = uint32(i)
	}
	if got := ReduceBitmap(bm, true, append([]uint32(nil), all...)); !equalU32(got, setPos) {
		t.Fatalf("ReduceBitmap set mismatch")
	}
	if got := ReduceBitmap(bm, false, append([]uint32(nil), all...)); !equalU32(got, clrPos) {
		t.Fatalf("ReduceBitmap clear mismatch")
	}
	if got := PositionsFromBitmap(bm, n, 0, nil); !equalU32(got, setPos) {
		t.Fatalf("PositionsFromBitmap mismatch")
	}
	if got := PositionsFromBitmapBranchy(bm, n, 0, nil); !equalU32(got, setPos) {
		t.Fatalf("PositionsFromBitmapBranchy mismatch")
	}
}

func TestReadWriteUint(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		data := make([]byte, 16*width)
		for i := 0; i < 16; i++ {
			v := uint64(i*37) & maxFor(width)
			WriteUint(data, i, width, v)
			if got := ReadUint(data, i, width); got != v {
				t.Fatalf("width %d idx %d: got %d want %d", width, i, got, v)
			}
		}
	}
}

func TestPosTable(t *testing.T) {
	for m := 0; m < 256; m++ {
		e := posTable[m]
		want := 0
		last := -1
		for b := 0; b < 8; b++ {
			if m>>uint(b)&1 == 1 {
				if int(e.pos[want]) != b {
					t.Fatalf("mask %08b: pos[%d]=%d want %d", m, want, e.pos[want], b)
				}
				if b <= last {
					t.Fatalf("positions not ascending for mask %08b", m)
				}
				last = b
				want++
			}
		}
		if int(e.n) != want {
			t.Fatalf("mask %08b: n=%d want %d", m, e.n, want)
		}
	}
}

func TestEnsureCap(t *testing.T) {
	out := make([]uint32, 3, 4)
	out[0], out[1], out[2] = 1, 2, 3
	grown := EnsureCap(out, 100)
	if cap(grown)-len(grown) < 100 {
		t.Fatalf("capacity not ensured: %d", cap(grown))
	}
	if !equalU32(grown, []uint32{1, 2, 3}) {
		t.Fatalf("contents lost: %v", grown)
	}
	same := EnsureCap(grown, 1)
	if &same[0] != &grown[0] {
		t.Fatalf("EnsureCap reallocated despite sufficient capacity")
	}
}

// TestBetweenSelectivitySweep drives the W1 kernel across the full
// selectivity range to catch any mask assembly bias.
func TestBetweenSelectivitySweep(t *testing.T) {
	n := 1024
	vals := make([]uint64, n)
	r := rand.New(rand.NewSource(9))
	for i := range vals {
		vals[i] = uint64(r.Intn(100))
	}
	data := encode(vals, 1)
	for hi := uint64(0); hi <= 100; hi += 5 {
		want := refFind(vals, OpBetween, 0, hi, 0)
		got := Find(data, 1, n, OpBetween, 0, hi, 0, nil)
		if !equalU32(got, want) {
			t.Fatalf("hi=%d: got %d want %d matches", hi, len(got), len(want))
		}
	}
}

func TestLoad64Unaligned(t *testing.T) {
	data := make([]byte, 24)
	for i := range data {
		data[i] = byte(i)
	}
	for off := 0; off < 8; off++ {
		want := binary.LittleEndian.Uint64(data[off : off+8])
		if got := load64(data, off); got != want {
			t.Fatalf("offset %d: got %x want %x", off, got, want)
		}
	}
}
