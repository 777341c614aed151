package simd

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestSumFloat64SeedsAccumulator(t *testing.T) {
	vals := []float64{0.1, 0.2, 0.3, 0.4}
	nulls := []bool{false, true, false, false}
	// Folding into the accumulator must match scalar row-order addition
	// bit for bit (no batch-local reassociation).
	want := 1.5
	for i, v := range vals {
		if !nulls[i] {
			want += v
		}
	}
	got, cnt := SumFloat64(1.5, vals, nulls)
	if math.Float64bits(got) != math.Float64bits(want) || cnt != 3 {
		t.Fatalf("SumFloat64 = (%v, %d), want (%v, 3)", got, cnt, want)
	}
	got, cnt = SumFloat64(0, vals, nil)
	if got != 1.0 || cnt != 4 {
		t.Fatalf("SumFloat64 no-nulls = (%v, %d)", got, cnt)
	}
}

func TestCountNotNull(t *testing.T) {
	if c := CountNotNull(5, nil); c != 5 {
		t.Fatalf("nil nulls: %d", c)
	}
	if c := CountNotNull(4, []bool{true, false, true, false, true}); c != 2 {
		t.Fatalf("masked: %d", c)
	}
}

func TestMinMaxKernels(t *testing.T) {
	mn, mx, any := MinMaxInt64([]int64{5, -2, 9}, []bool{false, false, true})
	if !any || mn != -2 || mx != 5 {
		t.Fatalf("MinMaxInt64 = (%d,%d,%v)", mn, mx, any)
	}
	if _, _, got := MinMaxInt64([]int64{1}, []bool{true}); got {
		t.Fatal("all-null vector reported a value")
	}
	fm, fx, any := MinMaxFloat64([]float64{1.5, -0.5, 2.5}, nil)
	if !any || fm != -0.5 || fx != 2.5 {
		t.Fatalf("MinMaxFloat64 = (%v,%v,%v)", fm, fx, any)
	}
}

func TestGroupedFolds(t *testing.T) {
	gids := []uint32{0, 1, 0, 1, 0}
	counts := make([]int64, 2)
	GroupFold(counts, 1, gids, nil)
	if counts[0] != 3 || counts[1] != 2 {
		t.Fatalf("GroupFold = %v", counts)
	}
	counts = make([]int64, 2)
	GroupCountNulls(counts, gids, []bool{false, true, false, false, true})
	if counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("GroupCountNulls = %v", counts)
	}
	sums := make([]float64, 2)
	GroupSumFloat64(sums, gids, []float64{1, 2, 3, 4, 5}, []bool{false, false, false, true, false})
	if sums[0] != 9 || sums[1] != 2 {
		t.Fatalf("GroupSumFloat64 = %v", sums)
	}
	mins, maxs := make([]int64, 2), make([]int64, 2)
	seen := make([]bool, 2)
	GroupMinMaxInt64(mins, maxs, seen, gids, []int64{7, -1, 3, 8, 9}, nil)
	if mins[0] != 3 || maxs[0] != 9 || mins[1] != -1 || maxs[1] != 8 {
		t.Fatalf("GroupMinMaxInt64 = %v %v", mins, maxs)
	}
	fmins, fmaxs := make([]float64, 2), make([]float64, 2)
	seen = make([]bool, 2)
	GroupMinMaxFloat64(fmins, fmaxs, seen, gids, []float64{7, -1, 3, 8, 9}, []bool{false, false, true, false, false})
	if fmins[0] != 7 || fmaxs[0] != 9 || fmins[1] != -1 || fmaxs[1] != 8 {
		t.Fatalf("GroupMinMaxFloat64 = %v %v", fmins, fmaxs)
	}
}

func TestHashKernels(t *testing.T) {
	vals := []int64{0, 1, -1, 1 << 40}
	out := make([]uint64, len(vals))
	HashInt64(vals, out)
	for i, v := range vals {
		if out[i] != Mix64(uint64(v)) {
			t.Fatalf("HashInt64[%d] disagrees with Mix64", i)
		}
	}
	if Mix64(1) == Mix64(2) {
		t.Fatal("Mix64 collision on trivial inputs")
	}
	if HashStr("abc") == HashStr("abd") || HashStr("") == HashStr("a") {
		t.Fatal("HashStr collision on trivial inputs")
	}
}

// TestHashCombineOrderDependent: the two-column key hash of (x, x) is
// distinct for every x in 0…20 000 — a symmetric combine sends them all to
// Mix64(0) — (a, b) and (b, a) hash apart, so do (a, 2c) and (c, 2a), and
// the dispatched kernel (AVX2 where active), the portable loop and the
// scalar HashCombine agree.
func TestHashCombineOrderDependent(t *testing.T) {
	const n = 20_001
	xs, ys := make([]int64, n), make([]int64, n)
	for i := range xs {
		xs[i], ys[i] = int64(i), int64(i*7919+13)
	}
	pair := func(a, b []int64, kernel func([]uint64, []int64)) []uint64 {
		hs := make([]uint64, len(a))
		HashInt64(a, hs)
		kernel(hs, b)
		return hs
	}
	same := pair(xs, xs, HashCombineInt64)
	portable := pair(xs, xs, hashCombineInt64Portable)
	ab, ba := pair(xs, ys, HashCombineInt64), pair(ys, xs, HashCombineInt64)
	seen := make(map[uint64]int64, n)
	for i, h := range same {
		x := xs[i]
		if want := HashCombine(Mix64(uint64(x)), Mix64(uint64(x))); h != want || portable[i] != want {
			t.Fatalf("(%d, %d): kernel %x, portable %x, scalar %x", x, x, h, portable[i], want)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("(%d, %d) and (%d, %d) share hash %x", x, x, prev, prev, h)
		}
		seen[h] = x
		if xs[i] != ys[i] && ab[i] == ba[i] {
			t.Fatalf("(%d, %d) and its mirror share hash %x", xs[i], ys[i], ab[i])
		}
	}
	for a := uint64(1); a < 300; a++ {
		for c := a + 1; c < 300; c++ {
			if HashCombine(Mix64(a), Mix64(2*c)) == HashCombine(Mix64(c), Mix64(2*a)) {
				t.Fatalf("(%d, %d) and (%d, %d) share a hash", a, 2*c, c, 2*a)
			}
		}
	}
	fs := []float64{1.5, -2, 0}
	hf, want := make([]uint64, len(fs)), make([]uint64, len(fs))
	HashFloat64(fs, hf)
	HashFloat64(fs, want)
	HashCombineFloat64(hf, fs)
	for i, f := range fs {
		if want[i] = HashCombine(want[i], Mix64(math.Float64bits(f))); hf[i] != want[i] {
			t.Fatalf("float (%v, %v): kernel %x, scalar %x", f, f, hf[i], want[i])
		}
	}
}

// TestSumInt64MatchesBig: every integer fold holds the exact sum of its
// values, against math/big, over random splits into batches, with and
// without NULLs. The 128-bit folds (GroupSumInt64, SumInt64) take values
// that carry past int64; the int64 partials (GroupAddInt64) take batches
// SumBound admits — values up to ±MaxInt64/n, the room's edge — whose NULL
// rows hold MinInt64, which no fold may read.
func TestSumInt64MatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pool := []int64{math.MaxInt64, math.MinInt64, 1 << 62, -1 << 62, -1, 0, 1}
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(300)
		vals, nulls, gids := make([]int64, n), make([]bool, n), make([]uint32, n)
		want := []*big.Int{new(big.Int), new(big.Int), new(big.Int)}
		masked, partial := trial%2 == 0, trial%4 >= 2
		top := int64(math.MaxInt64) / int64(max(n, 1))
		for i := range vals {
			vals[i], gids[i] = pool[r.Intn(len(pool))], uint32(r.Intn(3))
			if r.Intn(3) == 0 {
				vals[i] = r.Int63() - r.Int63()
			}
			if partial {
				vals[i] = max(-top, min(top, vals[i]))
			}
			if nulls[i] = masked && r.Intn(4) == 0; nulls[i] {
				vals[i] = math.MinInt64
			} else {
				want[gids[i]].Add(want[gids[i]], big.NewInt(vals[i]))
			}
		}
		if !masked {
			nulls = nil
		}
		sums, parts := make([][2]uint64, 3), make([]int64, 3)
		var acc [2]uint64
		var bound uint64
		for lo := 0; lo < n; {
			hi := lo + 1 + r.Intn(n-lo)
			var bn []bool
			if nulls != nil {
				bn = nulls[lo:hi]
			}
			GroupSumInt64(sums, gids[lo:hi], vals[lo:hi], bn)
			acc = SumInt64(acc, vals[lo:hi], bn)
			if partial {
				mn, mx, _ := MinMaxInt64(vals[lo:hi], bn)
				need, room := SumBound(hi-lo, mn, mx)
				if bound += need; !room || bound >= 1<<63 {
					t.Fatalf("trial %d: no room for rows %d..%d in [%d, %d]", trial, lo, hi, mn, mx)
				}
				GroupAddInt64(parts, 1, 0, gids[lo:hi], vals[lo:hi], bn)
			}
			lo = hi
		}
		total := new(big.Int)
		for g := range want {
			total.Add(total, want[g])
			if cellBig(sums[g]).Cmp(want[g]) != 0 {
				t.Fatalf("trial %d group %d: GroupSumInt64 = %v, want %v", trial, g, cellBig(sums[g]), want[g])
			}
			if partial && big.NewInt(parts[g]).Cmp(want[g]) != 0 {
				t.Fatalf("trial %d group %d: GroupAddInt64 = %d, want %v", trial, g, parts[g], want[g])
			}
		}
		if cellBig(acc).Cmp(total) != 0 {
			t.Fatalf("trial %d: SumInt64 = %v, want %v", trial, cellBig(acc), total)
		}
	}
}

// TestSumBoundRoom pins the room rule at the int64 ends: n·max|v| must
// stay below 2^63, and |MinInt64| alone is 2^63.
func TestSumBoundRoom(t *testing.T) {
	for _, c := range []struct {
		n      int
		lo, hi int64
		want   uint64
		room   bool
	}{
		{1, -math.MaxInt64, math.MaxInt64, math.MaxInt64, true},
		{1, math.MinInt64, 0, 1 << 63, false},
		{1, math.MinInt64, math.MinInt64, 1 << 63, false},
		{2, -1 << 62, 1 << 62, 1 << 63, false},
		{3, -5, 2, 15, true},
		{0, math.MinInt64, math.MaxInt64, 0, true},
		{1 << 40, 0, 1 << 30, 0, false}, // 2^70 wraps the low word to 0
	} {
		if b, room := SumBound(c.n, c.lo, c.hi); b != c.want || room != c.room {
			t.Errorf("SumBound(%d, %d, %d) = %d, %v; want %d, %v", c.n, c.lo, c.hi, b, room, c.want, c.room)
		}
	}
}

func cellBig(c [2]uint64) *big.Int {
	v := new(big.Int).Lsh(big.NewInt(int64(c[1])), 64)
	return v.Add(v, new(big.Int).SetUint64(c[0]))
}
