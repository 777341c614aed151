package core

import (
	"math"
	"slices"
	"testing"

	"datablocks/internal/types"
)

// sameValue is identity on dynamic values that tells -0.0 from +0.0 and
// holds NaN equal to itself.
func sameValue(a, b types.Value) bool {
	return a.Kind() == b.Kind() && a.IsNull() == b.IsNull() && a.String() == b.String()
}

// columnOf builds a column from values with MakeColumn and SetRow.
func columnOf(kind types.Kind, nullable bool, vals []types.Value) ColumnData {
	cols := []ColumnData{MakeColumn(kind, len(vals), nullable)}
	for row, v := range vals {
		SetRow(cols, row, types.Row{v})
	}
	return cols[0]
}

// checkCells fails unless c holds want, row for row, in vectors exactly
// len(want) long.
func checkCells(t *testing.T, what string, c *ColumnData, want []types.Value) {
	t.Helper()
	n := len(c.Ints) + len(c.Floats) + len(c.Strs) // one of them is set
	if n != len(want) || c.Nulls != nil && len(c.Nulls) != len(want) {
		t.Fatalf("%s: %d values, %d flags, want %d rows", what, n, len(c.Nulls), len(want))
	}
	for row, w := range want {
		if got := Cell(c, row); !sameValue(got, w) {
			t.Fatalf("%s: row %d = %v, want %v", what, row, got, w)
		}
	}
}

// pick returns vals at pos.
func pick(vals []types.Value, pos []uint32) []types.Value {
	out := make([]types.Value, len(pos))
	for i, p := range pos {
		out[i] = vals[p]
	}
	return out
}

// TestColumnFunctions runs every shared column function over each kind,
// with and without NULL flags.
func TestColumnFunctions(t *testing.T) {
	iv, fv, sv := types.IntValue, types.FloatValue, types.StringValue
	cases := []struct {
		name     string
		kind     types.Kind
		nullable bool
		vals     []types.Value
		bytes    int // HotBytes of every row
	}{
		{"int", types.Int64, false, []types.Value{iv(5), iv(-2), iv(7), iv(0), iv(9)}, 5 * 8},
		{"int/nulls", types.Int64, true, []types.Value{iv(5), types.NullValue(types.Int64), iv(7), iv(-2), iv(9)}, 5*8 + 5},
		{"float", types.Float64, false, []types.Value{fv(1.5), fv(math.NaN()), fv(math.Copysign(0, -1)), fv(math.Inf(1)), fv(-3)}, 5 * 8},
		{"float/nulls", types.Float64, true, []types.Value{fv(1.5), types.NullValue(types.Float64), fv(0), fv(math.Inf(-1)), fv(-3)}, 5*8 + 5},
		{"string", types.String, false, []types.Value{sv("ab"), sv(""), sv("xyz"), sv("q"), sv("ab")}, 8 + 5*16},
		{"string/nulls", types.String, true, []types.Value{sv("ab"), types.NullValue(types.String), sv("xyz"), sv("q"), sv("")}, 6 + 5*16 + 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.vals)
			col := columnOf(tc.kind, tc.nullable, tc.vals)
			if (col.Nulls != nil) != tc.nullable {
				t.Fatalf("MakeColumn: flags %v, nullable %v", col.Nulls != nil, tc.nullable)
			}
			if set := btoi(col.Ints != nil) + btoi(col.Floats != nil) + btoi(col.Strs != nil); set != 1 {
				t.Fatalf("MakeColumn: %d value vectors set, want 1", set)
			}
			if err := col.check(n); err != nil {
				t.Fatal(err)
			}
			checkCells(t, "SetRow/Cell", &col, tc.vals)
			// A NULL cell holds the kind's zero value.
			for row, v := range tc.vals {
				if v.IsNull() && !sameValue(Cell(&ColumnData{Kind: col.Kind, Ints: col.Ints, Floats: col.Floats, Strs: col.Strs}, row), zeroValue(tc.kind)) {
					t.Fatalf("row %d: a NULL cell keeps a value", row)
				}
			}

			if got := HotBytes(&col, n); got != tc.bytes {
				t.Fatalf("HotBytes = %d, want %d", got, tc.bytes)
			}
			head := Head(col, 2)
			checkCells(t, "Head", &head, tc.vals[:2])
			if got, want := HotBytes(&col, 2), HotBytes(&head, 2); got != want {
				t.Fatalf("HotBytes of 2 rows = %d, of their Head %d", got, want)
			}

			for _, pos := range [][]uint32{{}, {0, 1, 2, 3, 4}, {4, 0, 2, 0, 3, 1}} {
				var dst ColumnData
				Gather(&dst, &col, pos)
				checkCells(t, "Gather", &dst, pick(tc.vals, pos))
				if (dst.Nulls != nil) != tc.nullable && len(pos) > 0 {
					t.Fatalf("Gather %v: flags %v, source's %v", pos, dst.Nulls != nil, tc.nullable)
				}
				// Into a destination with room to spare: its vectors are
				// reused, its old cells gone.
				Gather(&dst, &col, []uint32{0, 1, 2, 3, 4, 0, 1})
				Gather(&dst, &col, pos)
				checkCells(t, "Gather reusing", &dst, pick(tc.vals, pos))
			}
			for _, sel := range [][]uint32{{}, {1, 3}, {0, 1, 2, 3, 4}} {
				inPlace := columnOf(tc.kind, tc.nullable, tc.vals)
				Gather(&inPlace, &inPlace, sel)
				checkCells(t, "Gather in place", &inPlace, pick(tc.vals, sel))
			}

			// CopyRows into a nullable destination whose flags are all set:
			// a source without flags clears the rows it copies.
			dst := MakeColumn(tc.kind, n+2, true)
			for i := range dst.Nulls {
				dst.Nulls[i] = true
			}
			CopyRows(&dst, 2, &col, 1, n-1)
			want := append([]types.Value{types.NullValue(tc.kind), types.NullValue(tc.kind)}, tc.vals[1:]...)
			checkCells(t, "CopyRows", &dst, append(want, types.NullValue(tc.kind)))

			// AppendRows: a result column has a flag per row, whether or not
			// the batches it appends have any.
			res := ColumnData{Kind: tc.kind}
			AppendRows(&res, &col, n)
			AppendRows(&res, &head, 2)
			AppendRows(&res, &col, 0)
			checkCells(t, "AppendRows", &res, append(slices.Clone(tc.vals), tc.vals[:2]...))
			if len(res.Nulls) != n+2 {
				t.Fatalf("AppendRows: %d flags for %d rows", len(res.Nulls), n+2)
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func zeroValue(k types.Kind) types.Value {
	switch k {
	case types.Int64:
		return types.IntValue(0)
	case types.Float64:
		return types.FloatValue(0)
	}
	return types.StringValue("")
}

// TestColumnCompare checks Compare's order on every pair of rows: NULL
// first, then NaN below every number, -Inf, -0.0 = +0.0, and +Inf last.
func TestColumnCompare(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	cases := []struct {
		name string
		col  ColumnData
		rank []int // Compare(i, j) has the sign of rank[i]-rank[j]
	}{
		{"float", ColumnData{Kind: types.Float64,
			Floats: []float64{0, nan, -inf, negZero, 0, 1, inf, nan},
			Nulls:  []bool{true, false, false, false, false, false, false, false}},
			[]int{0, 1, 2, 3, 3, 4, 5, 1}},
		{"float/no flags", ColumnData{Kind: types.Float64, Floats: []float64{inf, nan, negZero, 0, -inf}},
			[]int{4, 0, 2, 2, 1}},
		{"int", ColumnData{Kind: types.Int64, Ints: []int64{3, math.MinInt64, 0, 3, math.MaxInt64}, Nulls: []bool{false, false, true, false, false}},
			[]int{2, 1, 0, 2, 3}},
		{"string", ColumnData{Kind: types.String, Strs: []string{"b", "", "a", "ab", "x"}, Nulls: []bool{false, false, false, false, true}},
			[]int{4, 1, 2, 3, 0}},
	}
	sign := func(x int) int { return min(max(x, -1), 1) }
	for _, tc := range cases {
		for i := range tc.rank {
			for j := range tc.rank {
				if got, want := sign(Compare(&tc.col, i, j)), sign(tc.rank[i]-tc.rank[j]); got != want {
					t.Errorf("%s: Compare(%d, %d) = %d, want %d", tc.name, i, j, got, want)
				}
			}
		}
	}
}

// TestFreezeSortedByDoubleWithNaN freezes doubles holding NULL, NaN and
// both zeros sorted by that column: the block's order is Compare's, and
// rows that compare equal keep their input order.
func TestFreezeSortedByDoubleWithNaN(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{3, math.NaN(), 1, 0, 2, negZero, 0}
	nulls := []bool{false, false, false, true, false, false, false}
	ids := []int64{0, 1, 2, 3, 4, 5, 6}
	blk, err := Freeze([]ColumnData{
		{Kind: types.Float64, Floats: vals, Nulls: nulls},
		{Kind: types.Int64, Ints: ids},
	}, len(vals), FreezeOptions{SortBy: 0})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []int64{3, 1, 5, 6, 2, 4, 0}
	want := []string{"NULL", "NaN", "-0", "0", "1", "2", "3"}
	for row := range wantIDs {
		if got := blk.Int(1, row); got != wantIDs[row] {
			t.Fatalf("row %d holds input row %d, want %d (order %v)", row, got, wantIDs[row], wantIDs)
		}
		if got := blk.Value(0, row).String(); got != want[row] {
			t.Fatalf("row %d = %s, want %s", row, got, want[row])
		}
	}
}
