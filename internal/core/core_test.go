package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"datablocks/internal/compress"
	"datablocks/internal/simd"
	"datablocks/internal/types"
)

// buildTestBlock freezes a 3-column block: id (int), price (float),
// category (string), with optional nulls in category.
func buildTestBlock(t *testing.T, n int, withNulls bool, opts FreezeOptions) (*Block, []int64, []float64, []string, []bool) {
	t.Helper()
	r := rand.New(rand.NewSource(17))
	ids := make([]int64, n)
	prices := make([]float64, n)
	cats := make([]string, n)
	catNames := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	var nulls []bool
	if withNulls {
		nulls = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		ids[i] = int64(r.Intn(1000))
		prices[i] = float64(r.Intn(10000)) / 100
		cats[i] = catNames[r.Intn(len(catNames))]
		if withNulls && r.Intn(4) == 0 {
			nulls[i] = true
		}
	}
	b, err := Freeze([]ColumnData{
		{Kind: types.Int64, Ints: ids},
		{Kind: types.Float64, Floats: prices},
		{Kind: types.String, Strs: cats, Nulls: nulls},
	}, n, opts)
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return b, ids, prices, cats, nulls
}

// nextBatch fills batch with the scan's next vector of matches, every
// projected column unpacked, as the executor's scan driver does; false
// once the chunk is exhausted.
func nextBatch(sc *Scanner, batch *Batch) bool {
	m, ok := sc.NextMatches()
	if !ok {
		return false
	}
	batch.N, batch.Pos = len(m), append(batch.Pos[:0], m...)
	for k := range sc.spec.Project {
		sc.UnpackColumn(batch, k, m)
	}
	return true
}

func collectAll(t *testing.T, b *Block, spec ScanSpec) ([]uint32, []Batch) {
	t.Helper()
	sc, err := NewScanner(b, spec)
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	var pos []uint32
	var batches []Batch
	var batch Batch
	for nextBatch(sc, &batch) {
		pos = append(pos, batch.Pos...)
		// deep copy for inspection
		cp := Batch{N: batch.N, Pos: append([]uint32(nil), batch.Pos...)}
		for _, c := range batch.Cols {
			cc := BatchCol{ColumnData: ColumnData{Kind: c.Kind}}
			cc.Ints = append([]int64(nil), c.Ints...)
			cc.Floats = append([]float64(nil), c.Floats...)
			cc.Strs = append([]string(nil), c.Strs...)
			if c.Nulls != nil {
				cc.Nulls = append([]bool(nil), c.Nulls...)
			}
			cp.Cols = append(cp.Cols, cc)
		}
		batches = append(batches, cp)
	}
	return pos, batches
}

func TestFreezeRejectsBadInput(t *testing.T) {
	if _, err := Freeze(nil, 10, FreezeOptions{SortBy: -1}); err == nil {
		t.Fatal("expected error for no columns")
	}
	if _, err := Freeze([]ColumnData{{Kind: types.Int64, Ints: make([]int64, 5)}}, MaxRows+1, FreezeOptions{SortBy: -1}); err == nil {
		t.Fatal("expected error for oversized block")
	}
	if _, err := Freeze([]ColumnData{{Kind: types.Int64, Ints: make([]int64, 3)}}, 5, FreezeOptions{SortBy: -1}); err == nil {
		t.Fatal("expected error for short column")
	}
}

func TestPointAccess(t *testing.T) {
	n := 1000
	b, ids, prices, cats, nulls := buildTestBlock(t, n, true, FreezeOptions{SortBy: -1})
	for i := 0; i < n; i++ {
		if got := b.Int(0, i); got != ids[i] {
			t.Fatalf("Int(0,%d) = %d, want %d", i, got, ids[i])
		}
		if got := b.Float(1, i); got != prices[i] {
			t.Fatalf("Float(1,%d) = %g, want %g", i, got, prices[i])
		}
		if b.IsNull(2, i) != nulls[i] {
			t.Fatalf("IsNull(2,%d) = %v, want %v", i, b.IsNull(2, i), nulls[i])
		}
		if !nulls[i] {
			if got := b.Str(2, i); got != cats[i] {
				t.Fatalf("Str(2,%d) = %q, want %q", i, got, cats[i])
			}
		}
		v := b.Value(2, i)
		if v.IsNull() != nulls[i] {
			t.Fatalf("Value(2,%d) null mismatch", i)
		}
	}
}

func TestScanNoPredicatesYieldsAll(t *testing.T) {
	n := 20000 // multiple vectors
	b, ids, _, _, _ := buildTestBlock(t, n, false, FreezeOptions{SortBy: -1})
	pos, batches := collectAll(t, b, ScanSpec{Project: []int{0}})
	if len(pos) != n {
		t.Fatalf("got %d rows, want %d", len(pos), n)
	}
	// Vector-at-a-time: every batch obeys the vector size.
	for _, batch := range batches {
		if batch.N > DefaultVectorSize {
			t.Fatalf("batch size %d exceeds vector size", batch.N)
		}
	}
	i := 0
	for _, batch := range batches {
		for j := 0; j < batch.N; j++ {
			if batch.Cols[0].Ints[j] != ids[pos[i]] {
				t.Fatalf("row %d: unpacked %d, want %d", i, batch.Cols[0].Ints[j], ids[pos[i]])
			}
			i++
		}
	}
}

// TestScanMatchesReference cross-checks every operator against a naive
// row-at-a-time evaluation, on all three column kinds, with NULLs.
func TestScanMatchesReference(t *testing.T) {
	n := 5000
	b, ids, prices, cats, nulls := buildTestBlock(t, n, true, FreezeOptions{SortBy: -1})
	intPreds := []Predicate{
		{Col: 0, Op: types.Eq, Lo: types.IntValue(500)},
		{Col: 0, Op: types.Ne, Lo: types.IntValue(500)},
		{Col: 0, Op: types.Lt, Lo: types.IntValue(100)},
		{Col: 0, Op: types.Le, Lo: types.IntValue(100)},
		{Col: 0, Op: types.Gt, Lo: types.IntValue(900)},
		{Col: 0, Op: types.Ge, Lo: types.IntValue(900)},
		{Col: 0, Op: types.Between, Lo: types.IntValue(250), Hi: types.IntValue(750)},
	}
	refInt := func(v int64, p Predicate) bool {
		switch p.Op {
		case types.Eq:
			return v == p.Lo.Int()
		case types.Ne:
			return v != p.Lo.Int()
		case types.Lt:
			return v < p.Lo.Int()
		case types.Le:
			return v <= p.Lo.Int()
		case types.Gt:
			return v > p.Lo.Int()
		case types.Ge:
			return v >= p.Lo.Int()
		default:
			return v >= p.Lo.Int() && v <= p.Hi.Int()
		}
	}
	for _, usePSMA := range []bool{false, true} {
		for _, p := range intPreds {
			var want []uint32
			for i, v := range ids {
				if refInt(v, p) {
					want = append(want, uint32(i))
				}
			}
			got, _ := collectAll(t, b, ScanSpec{Preds: []Predicate{p}, Project: []int{0}, UsePSMA: usePSMA})
			if !equalU32(got, want) {
				t.Fatalf("psma=%v pred %v: got %d matches, want %d", usePSMA, p.Op, len(got), len(want))
			}
		}
	}

	// Conjunction: int range + float range + string predicate (nullable).
	spec := ScanSpec{
		Preds: []Predicate{
			{Col: 0, Op: types.Between, Lo: types.IntValue(100), Hi: types.IntValue(800)},
			{Col: 1, Op: types.Lt, Lo: types.FloatValue(50)},
			{Col: 2, Op: types.Ge, Lo: types.StringValue("beta")},
		},
		Project: []int{0, 1, 2},
		UsePSMA: true,
	}
	var want []uint32
	for i := range ids {
		if ids[i] >= 100 && ids[i] <= 800 && prices[i] < 50 && !nulls[i] && cats[i] >= "beta" {
			want = append(want, uint32(i))
		}
	}
	got, batches := collectAll(t, b, spec)
	if !equalU32(got, want) {
		t.Fatalf("conjunction: got %d matches, want %d", len(got), len(want))
	}
	i := 0
	for _, batch := range batches {
		for j := 0; j < batch.N; j++ {
			p := want[i]
			if batch.Cols[0].Ints[j] != ids[p] || batch.Cols[1].Floats[j] != prices[p] || batch.Cols[2].Strs[j] != cats[p] {
				t.Fatalf("unpacked row %d mismatch", i)
			}
			i++
		}
	}
}

func TestScanIsNull(t *testing.T) {
	n := 3000
	b, _, _, _, nulls := buildTestBlock(t, n, true, FreezeOptions{SortBy: -1})
	var wantNull, wantNotNull []uint32
	for i, isNull := range nulls {
		if isNull {
			wantNull = append(wantNull, uint32(i))
		} else {
			wantNotNull = append(wantNotNull, uint32(i))
		}
	}
	got, _ := collectAll(t, b, ScanSpec{Preds: []Predicate{{Col: 2, Op: types.IsNull}}, Project: []int{0}})
	if !equalU32(got, wantNull) {
		t.Fatalf("IsNull: got %d, want %d", len(got), len(wantNull))
	}
	got, _ = collectAll(t, b, ScanSpec{Preds: []Predicate{{Col: 2, Op: types.IsNotNull}}, Project: []int{0}})
	if !equalU32(got, wantNotNull) {
		t.Fatalf("IsNotNull: got %d, want %d", len(got), len(wantNotNull))
	}
}

func TestSMABlockSkipping(t *testing.T) {
	n := 1000
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(5000 + i) // domain [5000, 5999]
	}
	b, err := Freeze([]ColumnData{{Kind: types.Int64, Ints: ids}}, n, FreezeOptions{SortBy: -1})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(b, ScanSpec{Preds: []Predicate{{Col: 0, Op: types.Lt, Lo: types.IntValue(1000)}}})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.SkippedBySMA() {
		t.Fatal("expected SMA skip for out-of-range predicate")
	}
	var batch Batch
	if nextBatch(sc, &batch) {
		t.Fatal("skipped scanner must yield nothing")
	}
	// Dictionary probe miss also rules the block out: string equality on a
	// value between dictionary entries.
	sb, err := Freeze([]ColumnData{{Kind: types.String, Strs: []string{"aa", "cc", "aa", "cc"}}}, 4, FreezeOptions{SortBy: -1})
	if err != nil {
		t.Fatal(err)
	}
	sc, err = NewScanner(sb, ScanSpec{Preds: []Predicate{{Col: 0, Op: types.Eq, Lo: types.StringValue("bb")}}})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.SkippedBySMA() {
		t.Fatal("expected dictionary-probe skip")
	}
}

func TestPSMANarrowsSortedBlock(t *testing.T) {
	n := 1 << 16
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	b, err := Freeze([]ColumnData{{Kind: types.Int64, Ints: ids}}, n, FreezeOptions{SortBy: -1})
	if err != nil {
		t.Fatal(err)
	}
	spec := ScanSpec{
		Preds:   []Predicate{{Col: 0, Op: types.Between, Lo: types.IntValue(1000), Hi: types.IntValue(1099)}},
		Project: []int{0},
		UsePSMA: true,
	}
	sc, err := NewScanner(b, spec)
	if err != nil {
		t.Fatal(err)
	}
	begin, end := sc.ScanRange()
	if end-begin >= n {
		t.Fatalf("PSMA did not narrow: [%d,%d)", begin, end)
	}
	if begin > 1000 || end < 1100 {
		t.Fatalf("PSMA range [%d,%d) excludes matches", begin, end)
	}
	got, _ := collectAll(t, b, spec)
	if len(got) != 100 || got[0] != 1000 || got[99] != 1099 {
		t.Fatalf("wrong matches: %d rows", len(got))
	}
	// Without PSMA the range is the whole block but results are identical.
	spec.UsePSMA = false
	got2, _ := collectAll(t, b, spec)
	if !equalU32(got, got2) {
		t.Fatal("PSMA changed scan results")
	}
}

func TestFreezeSortImprovesPSMA(t *testing.T) {
	// Shuffled values, then frozen with SortBy: the PSMA ranges become
	// tight (the Figure 11 mechanism).
	n := 1 << 14
	r := rand.New(rand.NewSource(3))
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	r.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	payload := make([]int64, n)
	for i := range payload {
		payload[i] = ids[i] * 10
	}
	b, err := Freeze([]ColumnData{
		{Kind: types.Int64, Ints: ids},
		{Kind: types.Int64, Ints: payload},
	}, n, FreezeOptions{SortBy: 0})
	if err != nil {
		t.Fatal(err)
	}
	// After sorting, row i holds id i; tuples stay intact.
	for i := 0; i < n; i++ {
		if b.Int(0, i) != int64(i) || b.Int(1, i) != int64(i)*10 {
			t.Fatalf("sort broke tuple integrity at %d: (%d, %d)", i, b.Int(0, i), b.Int(1, i))
		}
	}
	spec := ScanSpec{
		Preds:   []Predicate{{Col: 0, Op: types.Eq, Lo: types.IntValue(42)}},
		Project: []int{1},
		UsePSMA: true,
	}
	sc, err := NewScanner(b, spec)
	if err != nil {
		t.Fatal(err)
	}
	begin, end := sc.ScanRange()
	if end-begin > 256 {
		t.Fatalf("sorted block PSMA range too wide: [%d,%d)", begin, end)
	}
}

// TestUsePSMAWithoutPSMA: Freeze builds no PSMA over a double attribute or
// a single-value one, and UnmarshalBlock accepts a coded attribute whose
// PSMA flag is off; a scan that asks for PSMA narrowing over any of them
// must still find exactly the matching rows.
func TestUsePSMAWithoutPSMA(t *testing.T) {
	n := 100
	prices := make([]float64, n)
	flags := make([]int64, n)
	ids := make([]int64, n)
	for i := range prices {
		prices[i] = float64(i) / 2
		flags[i] = 7
		ids[i] = int64(i)
	}
	b, err := Freeze([]ColumnData{{Kind: types.Float64, Floats: prices}, {Kind: types.Int64, Ints: flags}, {Kind: types.Int64, Ints: ids}}, n, FreezeOptions{SortBy: -1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Attr(0).Psma != nil || b.Attr(1).Psma != nil || b.Scheme(1) != compress.SingleValue {
		t.Fatal("bad test setup: want a double and a single-value attribute, neither with a PSMA")
	}
	b.Attr(2).Psma = nil
	for _, tc := range []struct {
		preds []Predicate
		want  []uint32
	}{
		{[]Predicate{{Col: 0, Op: types.Eq, Lo: types.FloatValue(5)}}, []uint32{10}},
		{[]Predicate{{Col: 1, Op: types.Eq, Lo: types.IntValue(7)}, {Col: 0, Op: types.Between, Lo: types.FloatValue(1), Hi: types.FloatValue(2)}}, []uint32{2, 3, 4}},
		{[]Predicate{{Col: 1, Op: types.Eq, Lo: types.IntValue(8)}}, nil},
		{[]Predicate{{Col: 2, Op: types.Eq, Lo: types.IntValue(5)}}, []uint32{5}},
	} {
		got, _ := collectAll(t, b, ScanSpec{Preds: tc.preds, Project: []int{0, 1, 2}, UsePSMA: true})
		if !slices.Equal(got, tc.want) {
			t.Fatalf("%v: got %v, want %v", tc.preds, got, tc.want)
		}
	}
}

// TestScanWithDeletes: delete filtering happens above the scanner (the
// exec layer thins match vectors through its epoch-aware ChunkView before
// unpacking); the scanner itself returns every predicate match, and the
// caller-side ReduceBitmap pass yields exactly the live matches.
func TestScanWithDeletes(t *testing.T) {
	n := 1000
	b, ids, _, _, _ := buildTestBlock(t, n, false, FreezeOptions{SortBy: -1})
	deleted := make([]uint64, simd.BitmapWords(n))
	r := rand.New(rand.NewSource(9))
	isDel := make([]bool, n)
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			simd.BitmapSet(deleted, uint32(i))
			isDel[i] = true
		}
	}
	var all, want []uint32
	for i, v := range ids {
		if v < 500 {
			all = append(all, uint32(i))
			if !isDel[i] {
				want = append(want, uint32(i))
			}
		}
	}
	got, _ := collectAll(t, b, ScanSpec{
		Preds:   []Predicate{{Col: 0, Op: types.Lt, Lo: types.IntValue(500)}},
		Project: []int{0},
	})
	if !equalU32(got, all) {
		t.Fatalf("scanner matches: got %d, want %d", len(got), len(all))
	}
	live := simd.ReduceBitmap(deleted, false, append([]uint32(nil), got...))
	if !equalU32(live, want) {
		t.Fatalf("live matches: got %d, want %d", len(live), len(want))
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	n := 4096
	b, ids, prices, cats, nulls := buildTestBlock(t, n, true, FreezeOptions{SortBy: -1})
	buf, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := UnmarshalBlock(buf, []types.Kind{types.Int64, types.Float64, types.String})
	if err != nil {
		t.Fatal(err)
	}
	if b2.Rows() != n {
		t.Fatalf("rows = %d", b2.Rows())
	}
	for i := 0; i < n; i++ {
		if b2.Int(0, i) != ids[i] || b2.Float(1, i) != prices[i] {
			t.Fatalf("row %d: values differ after round trip", i)
		}
		if b2.IsNull(2, i) != nulls[i] {
			t.Fatalf("row %d: null flag differs", i)
		}
		if !nulls[i] && b2.Str(2, i) != cats[i] {
			t.Fatalf("row %d: string differs", i)
		}
	}
	// Scans over the deserialized block must behave identically, including
	// PSMA narrowing.
	spec := ScanSpec{
		Preds:   []Predicate{{Col: 0, Op: types.Between, Lo: types.IntValue(100), Hi: types.IntValue(200)}},
		Project: []int{0, 2},
		UsePSMA: true,
	}
	got1, _ := collectAll(t, b, spec)
	got2, _ := collectAll(t, b2, spec)
	if !equalU32(got1, got2) {
		t.Fatalf("scan differs after round trip: %d vs %d", len(got1), len(got2))
	}
	// Schema mismatch must be rejected.
	if _, err := UnmarshalBlock(buf, []types.Kind{types.Int64, types.Float64}); err == nil {
		t.Fatal("expected attribute-count mismatch error")
	}
	if _, err := UnmarshalBlock(buf[:8], nil); err == nil {
		t.Fatal("expected short-buffer error")
	}
}

func TestSerializeAllSchemes(t *testing.T) {
	n := 300
	single := make([]int64, n)
	for i := range single {
		single[i] = 7
	}
	allNull := make([]bool, n)
	for i := range allNull {
		allNull[i] = true
	}
	wide := make([]int64, n)
	for i := range wide {
		wide[i] = int64(i) * (1 << 40) // uncompressed
	}
	floats := make([]float64, n)
	for i := range floats {
		floats[i] = float64(i) * 1.5
	}
	strs := make([]string, n)
	for i := range strs {
		strs[i] = []string{"x", "y"}[i%2]
	}
	b, err := Freeze([]ColumnData{
		{Kind: types.Int64, Ints: single},
		{Kind: types.Int64, Ints: single, Nulls: allNull},
		{Kind: types.Int64, Ints: wide},
		{Kind: types.Float64, Floats: floats},
		{Kind: types.String, Strs: strs},
	}, n, FreezeOptions{SortBy: -1})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	kinds := []types.Kind{types.Int64, types.Int64, types.Int64, types.Float64, types.String}
	b2, err := UnmarshalBlock(buf, kinds)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if b2.Int(0, i) != 7 || !b2.IsNull(1, i) || b2.Int(2, i) != wide[i] ||
			b2.Float(3, i) != floats[i] || b2.Str(4, i) != strs[i] {
			t.Fatalf("round trip mismatch at row %d", i)
		}
	}
	if b2.Scheme(0) != compress.SingleValue || b2.Scheme(2) != compress.Uncompressed {
		t.Fatalf("schemes lost: %v %v", b2.Scheme(0), b2.Scheme(2))
	}
}

func TestLayoutKey(t *testing.T) {
	a := make([]int64, 100)
	bcol := make([]int64, 100)
	for i := range a {
		a[i] = int64(i)           // trunc1
		bcol[i] = int64(i) * 1000 // trunc4
	}
	b1, _ := Freeze([]ColumnData{{Kind: types.Int64, Ints: a}, {Kind: types.Int64, Ints: bcol}}, 100, FreezeOptions{SortBy: -1})
	b2, _ := Freeze([]ColumnData{{Kind: types.Int64, Ints: a}, {Kind: types.Int64, Ints: a}}, 100, FreezeOptions{SortBy: -1})
	if b1.LayoutKey() == b2.LayoutKey() {
		t.Fatal("different layouts share a key")
	}
	b3, _ := Freeze([]ColumnData{{Kind: types.Int64, Ints: a}, {Kind: types.Int64, Ints: bcol}}, 100, FreezeOptions{SortBy: -1})
	if b1.LayoutKey() != b3.LayoutKey() {
		t.Fatal("same layout produced different keys")
	}
}

func TestCompressionRatio(t *testing.T) {
	// Dictionary-friendly data should compress well (the §3.3 claim of up
	// to 5x on real data sets).
	n := 1 << 16
	cats := make([]string, n)
	names := []string{"AIR", "AIR REG", "MAIL", "RAIL", "SHIP", "TRUCK", "FOB"}
	small := make([]int64, n)
	for i := range cats {
		cats[i] = names[i%len(names)]
		small[i] = int64(i % 100)
	}
	cols := []ColumnData{
		{Kind: types.String, Strs: cats},
		{Kind: types.Int64, Ints: small},
	}
	b, err := Freeze(cols, n, FreezeOptions{SortBy: -1})
	if err != nil {
		t.Fatal(err)
	}
	unc := 0
	for i := range cols {
		unc += HotBytes(&cols[i], n)
	}
	ratio := float64(unc) / float64(b.CompressedSize())
	if ratio < 4 {
		t.Fatalf("compression ratio %.2f too low for dict-friendly data", ratio)
	}
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

// TestFrozenBlocksRetainTheirCompressedSize: once its input is gone, a
// frozen block holds about the heap CompressedSize counts — no 16-byte
// header per dictionary entry, no sorted copy of a whole column behind a
// dictionary, no reference into the strings it was frozen from.
func TestFrozenBlocksRetainTheirCompressedSize(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	blocks := freezeStringBlocks(t, 8, 16384)
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	counted := 0
	for _, b := range blocks {
		counted += b.CompressedSize()
	}
	t.Logf("%d blocks retain %.0f B of heap, CompressedSize counts %d B (%.2fx)", len(blocks), heap, counted, heap/float64(counted))
	if heap > 1.3*float64(counted) {
		t.Fatalf("frozen blocks retain %.0f B of heap, %.2fx the %d B CompressedSize counts: want <= 1.3x", heap, heap/float64(counted), counted)
	}
	runtime.KeepAlive(blocks)
}

// freezeStringBlocks freezes n blocks of rows tuples each: a key, a 7-value
// string column with one allocation per cell (as a loader's parser makes
// them), a 7-value integer dictionary and a string distinct per row. The
// input columns are garbage once it returns.
func freezeStringBlocks(t *testing.T, n, rows int) []*Block {
	t.Helper()
	modes := []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	blocks := make([]*Block, n)
	for b := range blocks {
		keys := make([]int64, rows)
		mode := make([]string, rows)
		prio := make([]int64, rows)
		comment := make([]string, rows)
		for i := range keys {
			keys[i] = int64(b*rows + i)
			mode[i] = strings.Clone(modes[i*31%7])
			prio[i] = int64(i%7) << 40
			comment[i] = fmt.Sprintf("comment %d of block %d", i, b)
		}
		blk, err := Freeze([]ColumnData{
			{Kind: types.Int64, Ints: keys},
			{Kind: types.String, Strs: mode},
			{Kind: types.Int64, Ints: prio},
			{Kind: types.String, Strs: comment},
		}, rows, FreezeOptions{SortBy: -1})
		if err != nil {
			t.Fatal(err)
		}
		if blk.Scheme(1) != compress.Dictionary || blk.Scheme(2) != compress.Dictionary || blk.Scheme(3) != compress.Dictionary {
			t.Fatalf("schemes %v %v %v, want three dictionaries", blk.Scheme(1), blk.Scheme(2), blk.Scheme(3))
		}
		blocks[b] = blk
	}
	return blocks
}
