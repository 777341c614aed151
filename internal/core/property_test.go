package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"datablocks/internal/types"
)

// chooser turns a byte string into a sequence of decisions, so one body
// serves the random property test and the coverage-guided fuzzer. An
// exhausted string yields zeros: short inputs end in constant columns.
type chooser struct{ data []byte }

func (c *chooser) byte() byte {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return b
}

func (c *chooser) intn(n int) int { return int(c.byte()) % n }

var (
	propInts   = []int64{0, 1, 2, 3, 7, -1, -2, 100, 255, 256, -300, 65535, 65536, 1 << 33, -1 << 40, math.MaxInt64, math.MinInt64}
	propFloats = []float64{1, math.NaN(), 2, math.Copysign(0, -1), 0, 1.5, -3, math.Inf(1), math.Inf(-1), 1e300, 5e-324}
	propStrs   = []string{"a", "ab", "", "abc", "abd", "b", "ba", "zz", "é", "a\x00"}
	propOps    = [...][]types.CompareOp{
		types.Int64:   {types.Eq, types.Ne, types.Lt, types.Le, types.Gt, types.Ge, types.Between, types.IsNull, types.IsNotNull},
		types.Float64: {types.Eq, types.Ne, types.Lt, types.Le, types.Gt, types.Ge, types.Between, types.IsNull, types.IsNotNull},
		types.String:  {types.Eq, types.Ne, types.Lt, types.Le, types.Gt, types.Ge, types.Between, types.IsNull, types.IsNotNull, types.Prefix},
	}
)

// propValue picks the i-th value of the kind's domain.
func propValue(k types.Kind, i int) types.Value {
	switch k {
	case types.Int64:
		return types.IntValue(propInts[i%len(propInts)])
	case types.Float64:
		return types.FloatValue(propFloats[i%len(propFloats)])
	default:
		return types.StringValue(propStrs[i%len(propStrs)])
	}
}

// cell reads (col, row) of uncompressed columns as a dynamic value.
func cell(cols []ColumnData, col, row int) types.Value {
	c := &cols[col]
	switch {
	case c.Nulls != nil && c.Nulls[row]:
		return types.NullValue(c.Kind)
	case c.Kind == types.Int64:
		return types.IntValue(c.Ints[row])
	case c.Kind == types.Float64:
		return types.FloatValue(c.Floats[row])
	default:
		return types.StringValue(c.Strs[row])
	}
}

// rowMatches is the reference evaluation of one predicate on one row, with
// Go's own operators: NULL matches only IS NULL, NaN only <>.
func rowMatches(cols []ColumnData, row int, p Predicate) bool {
	v := cell(cols, p.Col, row)
	switch {
	case p.Op == types.IsNull:
		return v.IsNull()
	case p.Op == types.IsNotNull:
		return !v.IsNull()
	case v.IsNull():
		return false
	}
	switch v.Kind() {
	case types.Int64:
		return compares(p.Op, v.Int(), p.Lo.Int(), p.Hi.Int())
	case types.Float64:
		return compares(p.Op, v.Float(), p.Lo.Float(), p.Hi.Float())
	default:
		if p.Op == types.Prefix {
			return strings.HasPrefix(v.Str(), p.Lo.Str())
		}
		return compares(p.Op, v.Str(), p.Lo.Str(), p.Hi.Str())
	}
}

func compares[T cmp.Ordered](op types.CompareOp, a, lo, hi T) bool {
	switch op {
	case types.Eq:
		return a == lo
	case types.Ne:
		return a != lo
	case types.Lt:
		return a < lo
	case types.Le:
		return a <= lo
	case types.Gt:
		return a > lo
	case types.Ge:
		return a >= lo
	default: // Between
		return a >= lo && a <= hi
	}
}

// checkScanLayouts is the core end-to-end property: for arbitrary column
// contents (ints, doubles with NaN and -0.0, strings; no NULLs, some, all)
// and an arbitrary conjunction of one or two SARGable predicates, the scan
// of the uncompressed columns, the scan of the same rows frozen (with and
// without PSMA narrowing) and a naive row loop select exactly the same
// positions and unpack exactly the same cells.
func checkScanLayouts(t *testing.T, data []byte) {
	c := &chooser{data: data}
	n := 1 + (int(c.byte())|int(c.byte())<<8)%1500
	sorted := c.intn(4) == 0
	vecSize := []int{0, 1, 7, 64}[c.intn(4)]
	kinds := []types.Kind{types.Int64, types.Float64, types.String}
	cols := make([]ColumnData, len(kinds))
	for ci, k := range kinds {
		col := ColumnData{Kind: k}
		card, rot := 1+c.intn(17), c.intn(17) // distinct values, and which
		nullMode := c.intn(8)                 // 0-3 no flags, 4-6 some NULLs, 7 all NULL
		if nullMode >= 4 {
			col.Nulls = make([]bool, n)
		}
		for row := 0; row < n; row++ {
			b := int(c.byte())
			v := propValue(k, rot+(b>>3)%card)
			switch k {
			case types.Int64:
				col.Ints = append(col.Ints, v.Int())
			case types.Float64:
				col.Floats = append(col.Floats, v.Float())
			default:
				col.Strs = append(col.Strs, v.Str())
			}
			if col.Nulls != nil {
				col.Nulls[row] = nullMode == 7 || b&7 == 0
			}
		}
		cols[ci] = col
	}
	sortBy := -1
	if sorted {
		sortBy = 0
	}
	blk, err := Freeze(cols, n, FreezeOptions{SortBy: sortBy})
	if err != nil {
		t.Fatal(err)
	}
	if sorted {
		// Both layouts must hold the same rows in the same order: read the
		// block's order back into columns.
		for ci := range cols {
			was := cols[ci]
			col := ColumnData{Kind: was.Kind, Ints: make([]int64, n), Floats: make([]float64, n), Strs: make([]string, n)}
			if was.Nulls != nil {
				col.Nulls = make([]bool, n)
			}
			for row := 0; row < n; row++ {
				switch v := blk.Value(ci, row); {
				case v.IsNull():
					col.Nulls[row] = true
				case was.Kind == types.Int64:
					col.Ints[row] = v.Int()
				case was.Kind == types.Float64:
					col.Floats[row] = v.Float()
				default:
					col.Strs[row] = v.Str()
				}
			}
			cols[ci] = col
		}
	}
	spec := ScanSpec{Project: []int{2, 0, 1}, VectorSize: vecSize}
	for i := 1 + c.intn(2); i > 0; i-- {
		p := Predicate{Col: c.intn(len(kinds))}
		k := kinds[p.Col]
		p.Op = propOps[k][c.intn(len(propOps[k]))]
		p.Lo, p.Hi = propValue(k, c.intn(17)), propValue(k, c.intn(17))
		spec.Preds = append(spec.Preds, p)
	}

	// The row loop.
	want := map[uint32]string{}
	for row := 0; row < n; row++ {
		ok := true
		for _, p := range spec.Preds {
			ok = ok && rowMatches(cols, row, p)
		}
		if ok {
			want[uint32(row)] = fmt.Sprint(cell(cols, 2, row), cell(cols, 0, row), cell(cols, 1, row))
		}
	}
	run := func(name string, sc *Scanner, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v (preds %v)", name, err, spec.Preds)
		}
		got := map[uint32]string{}
		var batch Batch
		for nextBatch(sc, &batch) {
			for i, p := range batch.Pos {
				if _, dup := got[p]; dup {
					t.Fatalf("%s: position %d matched twice", name, p)
				}
				got[p] = fmt.Sprint(Cell(&batch.Cols[0].ColumnData, i), Cell(&batch.Cols[1].ColumnData, i), Cell(&batch.Cols[2].ColumnData, i))
			}
		}
		for p, w := range want {
			if g, ok := got[p]; !ok || g != w {
				t.Fatalf("%s: row %d = %q (matched %v), the row loop has %q; preds %v, sorted %v", name, p, g, ok, w, spec.Preds, sorted)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d matches, the row loop has %d; preds %v, sorted %v", name, len(got), len(want), spec.Preds, sorted)
		}
	}
	sc, err := NewColumnScanner(cols, n, spec)
	run("columns", sc, err)
	sc, err = NewScanner(blk, spec)
	run("block", sc, err)
	spec.UsePSMA = true
	sc, err = NewScanner(blk, spec)
	run("block+psma", sc, err)
}

func TestScanPropertyRandomBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 400; i++ {
		data := make([]byte, r.Intn(6000))
		r.Read(data)
		if i%4 == 0 { // few rows, every decision still random
			data[0], data[1] = byte(r.Intn(40)), 0
		}
		checkScanLayouts(t, data)
	}
}

// FuzzScanLayouts lets the fuzzer steer checkScanLayouts' decisions.
func FuzzScanLayouts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 1, 3, 1, 7, 8, 16, 24})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		data := make([]byte, 300*(i+1))
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(checkScanLayouts)
}

// TestSerializePropertyRandom round-trips random blocks through the flat
// binary format and verifies every cell.
func TestSerializePropertyRandom(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%1500 + 1
		r := rand.New(rand.NewSource(seed))
		ints := make([]int64, n)
		strs := make([]string, n)
		nulls := make([]bool, n)
		words := []string{"aa", "bb", "cc", "dd", "ee"}
		for i := range ints {
			ints[i] = r.Int63n(1 << uint(r.Intn(40)))
			strs[i] = words[r.Intn(len(words))]
			nulls[i] = r.Intn(6) == 0
		}
		blk, err := Freeze([]ColumnData{
			{Kind: types.Int64, Ints: ints},
			{Kind: types.String, Strs: strs, Nulls: nulls},
		}, n, FreezeOptions{SortBy: -1})
		if err != nil {
			return false
		}
		buf, err := blk.MarshalBinary()
		if err != nil {
			return false
		}
		b2, err := UnmarshalBlock(buf, []types.Kind{types.Int64, types.String})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if b2.Int(0, i) != ints[i] || b2.IsNull(1, i) != nulls[i] {
				return false
			}
			if !nulls[i] && b2.Str(1, i) != strs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
