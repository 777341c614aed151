package compress

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEncodeIntsSchemes(t *testing.T) {
	tests := []struct {
		name   string
		values []int64
		nulls  []bool
		scheme Scheme
		width  int
	}{
		{"single", []int64{7, 7, 7, 7}, nil, SingleValue, 0},
		{"all-null", []int64{0, 0}, []bool{true, true}, SingleValue, 0},
		{"trunc1", []int64{1000, 1001, 1002, 1255}, nil, Truncation, 1},
		{"trunc2", []int64{0, 65535, 3, 9}, nil, Truncation, 2},
		{"trunc4", []int64{0, 1 << 30, 5, 6}, nil, Truncation, 4},
		{"uncompressed", []int64{math.MinInt64, math.MaxInt64, 0, 5}, nil, Uncompressed, 8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := EncodeInts(tt.values, tt.nulls)
			if v.Scheme != tt.scheme {
				t.Fatalf("scheme = %v, want %v", v.Scheme, tt.scheme)
			}
			if v.Width != tt.width {
				t.Fatalf("width = %d, want %d", v.Width, tt.width)
			}
			for i, want := range tt.values {
				if tt.nulls != nil && tt.nulls[i] {
					continue
				}
				if got := v.Get(i); got != want {
					t.Fatalf("Get(%d) = %d, want %d", i, got, want)
				}
			}
		})
	}
}

func TestDictionaryChosenForWideSparseDomain(t *testing.T) {
	// Few distinct values spread across a huge range: truncation would need
	// 8 bytes; dictionary needs 1-byte keys.
	values := make([]int64, 1000)
	domain := []int64{0, 1 << 40, 1 << 50, -(1 << 45)}
	for i := range values {
		values[i] = domain[i%len(domain)]
	}
	v := EncodeInts(values, nil)
	if v.Scheme != Dictionary {
		t.Fatalf("scheme = %v, want Dictionary", v.Scheme)
	}
	if v.Width != 1 {
		t.Fatalf("width = %d, want 1", v.Width)
	}
	for i, want := range values {
		if got := v.Get(i); got != want {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want)
		}
	}
	// Order preservation: codes must sort like values.
	for i := 1; i < len(v.Dict); i++ {
		if v.Dict[i-1] >= v.Dict[i] {
			t.Fatalf("dictionary not strictly ascending at %d", i)
		}
	}
}

func TestIntRoundTripQuick(t *testing.T) {
	f := func(values []int64, seed int64) bool {
		if len(values) == 0 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		nulls := make([]bool, len(values))
		for i := range nulls {
			nulls[i] = r.Intn(5) == 0
		}
		v := EncodeInts(values, nulls)
		for i, want := range values {
			if nulls[i] {
				continue
			}
			if v.Get(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateRangeInt(t *testing.T) {
	values := []int64{10, 20, 30, 40, 50}
	v := EncodeInts(values, nil)
	check := func(lo, hi int64, verdict Verdict) Translation {
		t.Helper()
		tr := v.TranslateRange(lo, hi)
		if tr.Verdict != verdict {
			t.Fatalf("TranslateRange(%d,%d) verdict = %v, want %v", lo, hi, tr.Verdict, verdict)
		}
		return tr
	}
	check(0, 5, None)   // below min: block skip
	check(60, 99, None) // above max: block skip
	check(10, 50, All)  // covers whole domain
	check(0, 100, All)  // superset
	tr := check(15, 35, Range)
	// verify translated codes select exactly {20, 30}
	count := 0
	for i := range values {
		c := v.CodeAt(i)
		if c >= tr.C1 && c <= tr.C2 {
			count++
			if values[i] < 15 || values[i] > 35 {
				t.Fatalf("false positive at %d", i)
			}
		}
	}
	if count != 2 {
		t.Fatalf("matched %d, want 2", count)
	}
}

// TestTranslateRangeEquivalence: for any scheme, decoding codes in the
// translated range must select exactly the values in [lo, hi].
func TestTranslateRangeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	gens := []func() int64{
		func() int64 { return int64(r.Intn(100)) },                 // trunc1
		func() int64 { return int64(r.Intn(100000)) },              // trunc4
		func() int64 { return []int64{5, 1 << 40, -9}[r.Intn(3)] }, // dict
		func() int64 { return r.Int63() - r.Int63() },              // uncompressed
	}
	for gi, gen := range gens {
		values := make([]int64, 500)
		for i := range values {
			values[i] = gen()
		}
		v := EncodeInts(values, nil)
		for trial := 0; trial < 50; trial++ {
			lo := gen()
			hi := gen()
			if lo > hi {
				lo, hi = hi, lo
			}
			tr := v.TranslateRange(lo, hi)
			for i, x := range values {
				want := x >= lo && x <= hi
				var got bool
				switch tr.Verdict {
				case None:
					got = false
				case All:
					got = true
				case Range:
					c := v.CodeAt(i)
					got = c >= tr.C1 && c <= tr.C2
				}
				if got != want {
					t.Fatalf("gen %d scheme %v: value %d in [%d,%d]: got %v want %v",
						gi, v.Scheme, x, lo, hi, got, want)
				}
			}
		}
	}
}

func TestTranslateNotEqual(t *testing.T) {
	values := []int64{10, 20, 30}
	v := EncodeInts(values, nil)
	if tr := v.TranslateNotEqual(99); tr.Verdict != All {
		t.Fatalf("out-of-domain != should be All, got %v", tr.Verdict)
	}
	tr := v.TranslateNotEqual(20)
	if tr.Verdict != NotEqual {
		t.Fatalf("verdict = %v", tr.Verdict)
	}
	for i, x := range values {
		got := v.CodeAt(i) != tr.C1
		if got != (x != 20) {
			t.Fatalf("value %d: got %v", x, got)
		}
	}
	single := EncodeInts([]int64{5, 5}, nil)
	if tr := single.TranslateNotEqual(5); tr.Verdict != None {
		t.Fatalf("single != self should be None, got %v", tr.Verdict)
	}
	if tr := single.TranslateNotEqual(6); tr.Verdict != All {
		t.Fatalf("single != other should be All, got %v", tr.Verdict)
	}
}

func TestEncodeStrings(t *testing.T) {
	values := []string{"cherry", "apple", "banana", "apple", "cherry"}
	v := EncodeStrings(values, nil)
	if v.Scheme != Dictionary {
		t.Fatalf("scheme = %v", v.Scheme)
	}
	for i, want := range values {
		if got := v.Get(i); got != want {
			t.Fatalf("Get(%d) = %q, want %q", i, got, want)
		}
	}
	if v.Min() != "apple" || v.Max() != "cherry" {
		t.Fatalf("SMA = %q..%q", v.Min(), v.Max())
	}
	tr := v.TranslateRange("b", "c")
	if tr.Verdict != Range {
		t.Fatalf("verdict = %v", tr.Verdict)
	}
	for i, s := range values {
		got := v.CodeAt(i) >= tr.C1 && v.CodeAt(i) <= tr.C2
		want := s >= "b" && s <= "c"
		if got != want {
			t.Fatalf("string %q: got %v want %v", s, got, want)
		}
	}
	if tr := v.TranslateRange("x", "z"); tr.Verdict != None {
		t.Fatalf("out of range should be None")
	}
	single := EncodeStrings([]string{"x", "x"}, nil)
	if single.Scheme != SingleValue || single.Single != "x" {
		t.Fatalf("single-value string broken: %+v", single)
	}
}

// TestDictionariesHoldExactlyTheirValues: a dictionary keeps nothing of the
// column it was found in. An integer dictionary's array has exactly its
// entries; a string section is exactly the distinct values' bytes in
// ascending order, with one offset more than the dictionary has entries;
// and a single-value string does not alias its input.
func TestDictionariesHoldExactlyTheirValues(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, card := range []int{2, 7, 300, 5000} {
		ints := make([]int64, 8192)
		strs := make([]string, len(ints))
		for i := range ints {
			k := r.Intn(card)
			ints[i] = int64(k) << 40
			strs[i] = fmt.Sprintf("v%0*d", 1+k%5, k)
		}
		iv := EncodeInts(ints, nil)
		if iv.Scheme != Dictionary || cap(iv.Dict) != len(iv.Dict) {
			t.Fatalf("cardinality %d: scheme %v, dictionary len %d cap %d", card, iv.Scheme, len(iv.Dict), cap(iv.Dict))
		}
		distinct := slices.Clone(strs)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		sv := EncodeStrings(strs, nil)
		if sv.DictLen() != len(distinct) || len(sv.Offsets) != len(distinct)+1 {
			t.Fatalf("cardinality %d: %d entries and %d offsets for %d distinct values", card, sv.DictLen(), len(sv.Offsets), len(distinct))
		}
		if sv.Section != strings.Join(distinct, "") {
			t.Fatalf("cardinality %d: the section is not the distinct values back to back", card)
		}
		for c, s := range distinct {
			if sv.Entry(c) != s {
				t.Fatalf("cardinality %d: entry %d = %q, want %q", card, c, sv.Entry(c), s)
			}
		}
	}
	in := strings.Repeat("x", 64)
	single := EncodeStrings([]string{in[:8], in[:8]}, nil)
	if single.Scheme != SingleValue || single.Single != in[:8] || unsafe.StringData(single.Single) == unsafe.StringData(in) {
		t.Fatalf("single value %q aliases its input or is wrong", single.Single)
	}
}

func TestTranslatePrefix(t *testing.T) {
	values := []string{"AIR", "AIR REG", "MAIL", "RAIL", "SHIP", "TRUCK"}
	v := EncodeStrings(values, nil)
	tr := v.TranslatePrefix("AIR")
	if tr.Verdict != Range {
		t.Fatalf("verdict = %v", tr.Verdict)
	}
	for i, s := range values {
		got := v.CodeAt(i) >= tr.C1 && v.CodeAt(i) <= tr.C2
		want := len(s) >= 3 && s[:3] == "AIR"
		if got != want {
			t.Fatalf("prefix AIR on %q: got %v want %v", s, got, want)
		}
	}
	if tr := v.TranslatePrefix("ZZZ"); tr.Verdict != None {
		t.Fatalf("missing prefix should be None")
	}
	if tr := v.TranslatePrefix(""); tr.Verdict != All {
		t.Fatalf("empty prefix should be All")
	}
}

func TestEncodeFloats(t *testing.T) {
	values := []float64{1.5, 2.5, 0.25, 9.75}
	v := EncodeFloats(values, nil)
	if v.Scheme != Uncompressed {
		t.Fatalf("scheme = %v", v.Scheme)
	}
	if v.Min != 0.25 || v.Max != 9.75 {
		t.Fatalf("SMA = %g..%g", v.Min, v.Max)
	}
	for i, want := range values {
		if v.Get(i) != want {
			t.Fatalf("Get(%d) mismatch", i)
		}
	}
	single := EncodeFloats([]float64{3.5, 3.5}, nil)
	if single.Scheme != SingleValue || single.Single != 3.5 {
		t.Fatalf("single float broken")
	}
	allNull := EncodeFloats([]float64{1, 2}, []bool{true, true})
	if !allNull.AllNull {
		t.Fatalf("all-null float not detected")
	}
	// Equal under == is not the same value: neither a NaN between equal
	// values nor the other zero may be folded into a single value, and a
	// NaN takes the SMA bounds with it (NULL rows do not).
	for _, values := range [][]float64{{1, math.NaN(), 1}, {math.NaN(), 1, 1}, {0, math.Copysign(0, -1)}} {
		v := EncodeFloats(values, nil)
		if v.Scheme != Uncompressed {
			t.Fatalf("%v stored as %v", values, v.Scheme)
		}
		for i, want := range values {
			if math.Float64bits(v.Get(i)) != math.Float64bits(want) {
				t.Fatalf("%v: Get(%d) = %v", values, i, v.Get(i))
			}
		}
		if hasNaN := math.IsNaN(values[0] + values[1]); math.IsNaN(v.Min) != hasNaN || math.IsNaN(v.Max) != hasNaN {
			t.Fatalf("%v: SMA = %g..%g", values, v.Min, v.Max)
		}
	}
	if v := EncodeFloats([]float64{1, math.NaN(), 2}, []bool{false, true, false}); v.Min != 1 || v.Max != 2 {
		t.Fatalf("NULL NaN entered the SMA: %g..%g", v.Min, v.Max)
	}
}

func TestByteWidth(t *testing.T) {
	cases := []struct {
		v uint64
		w int
	}{{0, 1}, {255, 1}, {256, 2}, {65535, 2}, {65536, 4}, {1<<32 - 1, 4}, {1 << 32, 8}, {math.MaxUint64, 8}}
	for _, c := range cases {
		if got := ByteWidth(c.v); got != c.w {
			t.Errorf("ByteWidth(%d) = %d, want %d", c.v, got, c.w)
		}
	}
}

func TestBiasIntOrderPreserving(t *testing.T) {
	f := func(a, b int64) bool {
		return (a < b) == (BiasInt(a) < BiasInt(b)) && UnbiasInt(BiasInt(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedSizeAccounting(t *testing.T) {
	values := make([]int64, 1000)
	for i := range values {
		values[i] = int64(i % 100)
	}
	v := EncodeInts(values, nil)
	if v.Scheme != Truncation || v.Width != 1 {
		t.Fatalf("expected 1-byte truncation, got %v w=%d", v.Scheme, v.Width)
	}
	if size := v.CompressedSize(); size < 1000 || size > 1100 {
		t.Fatalf("size = %d, want ~1032", size)
	}
}

// TestCodeVectorsCarryGatherSlack: every code vector EncodeInts and
// EncodeStrings build holds at least 3 bytes behind its N·Width code
// bytes, the reach of simd's 4-byte gathers at the last code.
func TestCodeVectorsCarryGatherSlack(t *testing.T) {
	const n = 1000
	ints := map[string]func(i int) int64{
		"trunc1":       func(i int) int64 { return int64(i % 200) },
		"trunc2":       func(i int) int64 { return int64(i) * 60 },
		"trunc4":       func(i int) int64 { return int64(i) << 20 },
		"dict1":        func(i int) int64 { return int64(i%3) << 40 },
		"dict2":        func(i int) int64 { return int64(i%300) << 40 },
		"uncompressed": func(i int) int64 { return int64(i) * 0x9E3779B97F4A7C1 },
	}
	for name, gen := range ints {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = gen(i)
		}
		v := EncodeInts(vals, nil)
		if len(v.Data) < v.N*v.Width+3 {
			t.Errorf("EncodeInts %s (%v, width %d): %d data bytes for %d codes", name, v.Scheme, v.Width, len(v.Data), v.N)
		}
	}
	for _, card := range []int{3, 300} {
		strs := make([]string, n)
		for i := range strs {
			strs[i] = fmt.Sprint("s", i%card)
		}
		v := EncodeStrings(strs, nil)
		if len(v.Data) < v.N*v.Width+3 {
			t.Errorf("EncodeStrings (width %d): %d data bytes for %d codes", v.Width, len(v.Data), v.N)
		}
	}
}
