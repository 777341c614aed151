package vwise

import (
	"math/rand"
	"testing"
	"testing/quick"

	"datablocks/internal/core"
	"datablocks/internal/types"
)

func roundTripInts(t *testing.T, values []int64, wantScheme Scheme) *IntColumn {
	t.Helper()
	c := EncodeInts(values)
	if wantScheme != Raw || c.Scheme == Raw {
		// only check when caller cares
	}
	out := make([]int64, len(values))
	c.Decompress(out)
	for i, want := range values {
		if out[i] != want {
			t.Fatalf("scheme %v: out[%d] = %d, want %d", c.Scheme, i, out[i], want)
		}
	}
	return c
}

func TestPFORWithOutliers(t *testing.T) {
	// Mostly small values with rare huge outliers: PFOR's home turf.
	r := rand.New(rand.NewSource(1))
	values := make([]int64, 10000)
	for i := range values {
		values[i] = int64(r.Intn(100))
		if r.Intn(100) == 0 {
			values[i] = int64(r.Uint32()) << 16 // outlier
		}
	}
	c := roundTripInts(t, values, PFOR)
	if c.Scheme != PFOR {
		t.Fatalf("scheme = %v, want PFOR", c.Scheme)
	}
	if len(c.ExcPos) == 0 {
		t.Fatal("expected patched exceptions")
	}
	if got, limit := len(c.ExcPos), int(float64(len(values))*2*exceptionRate)+64; got > limit {
		t.Fatalf("too many exceptions: %d > %d", got, limit)
	}
	if c.CompressedSize() >= 8*len(values) {
		t.Fatalf("PFOR did not compress: %d", c.CompressedSize())
	}
}

func TestPFORDeltaOnSortedData(t *testing.T) {
	values := make([]int64, 10000)
	v := int64(1 << 40)
	r := rand.New(rand.NewSource(2))
	for i := range values {
		v += int64(r.Intn(5))
		values[i] = v
	}
	c := roundTripInts(t, values, PFORDelta)
	if c.Scheme != PFORDelta {
		t.Fatalf("scheme = %v, want PFORDelta", c.Scheme)
	}
	// Sorted data with tiny deltas compresses drastically.
	if c.CompressedSize() > len(values) {
		t.Fatalf("delta compression too weak: %d bytes", c.CompressedSize())
	}
}

func TestPDICTOnSparseDomain(t *testing.T) {
	domain := []int64{-(1 << 50), 0, 1 << 30, 1 << 60}
	values := make([]int64, 5000)
	for i := range values {
		values[i] = domain[i%len(domain)]
	}
	c := roundTripInts(t, values, PDICT)
	if c.Scheme != PDICT {
		t.Fatalf("scheme = %v, want PDICT", c.Scheme)
	}
}

func TestIntsQuick(t *testing.T) {
	f := func(values []int64) bool {
		if len(values) == 0 {
			return true
		}
		c := EncodeInts(values)
		out := make([]int64, len(values))
		c.Decompress(out)
		for i := range values {
			if out[i] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringsRoundTrip(t *testing.T) {
	values := []string{"mail", "air", "truck", "air", "ship", "mail", "air"}
	c := EncodeStrings(values)
	codes := make([]uint32, c.N)
	c.Packed.UnpackAll(codes)
	for i, code := range codes {
		if c.Dict[code] != values[i] {
			t.Fatalf("row %d decodes to %q", i, c.Dict[code])
		}
	}
}

func TestTableScanAndLookup(t *testing.T) {
	n := 5000
	cols := []core.ColumnData{
		{Kind: types.Int64, Ints: make([]int64, n)},
		{Kind: types.Float64, Floats: make([]float64, n)},
		{Kind: types.String, Strs: make([]string, n)},
	}
	for i := 0; i < n; i++ {
		cols[0].Ints[i] = int64(i)
		cols[1].Floats[i] = float64(i) / 4
		cols[2].Strs[i] = []string{"x", "y", "z"}[i%3]
	}
	tbl, err := NewTable(cols, n, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Full scan sums the key column.
	var sum, want int64
	tbl.ScanInts(0, func(base int, vals []int64) {
		for _, v := range vals {
			sum += v
		}
	})
	for i := 0; i < n; i++ {
		want += int64(i)
	}
	if sum != want {
		t.Fatalf("scan sum = %d, want %d", sum, want)
	}
}

func TestVectorwiseCompressesTighter(t *testing.T) {
	// On narrow-domain data, bit-packing should beat byte-aligned codes;
	// this is the Table 1 relationship (Vectorwise ~25% smaller).
	n := 1 << 16
	values := make([]int64, n)
	r := rand.New(rand.NewSource(3))
	for i := range values {
		values[i] = int64(r.Intn(512)) // 9 bits; Data Blocks must use 2 bytes
	}
	c := EncodeInts(values)
	if c.CompressedSize() >= 2*n {
		t.Fatalf("vwise size %d not below byte-aligned %d", c.CompressedSize(), 2*n)
	}
}
