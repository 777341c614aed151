package datablocks

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

var sargModes = []ScanMode{ModeJIT, ModeVectorized, ModeVectorizedSARG, ModeVectorizedSARGPSMA}

// sargTable loads rows (k int64 PK, f float64 nullable, s string) into a
// table of 64-row chunks in one of three storage states: every chunk hot,
// every chunk frozen, or the first half of the rows frozen and the rest
// hot.
func sargTable(t *testing.T, state string, rows []Row) *Table {
	t.Helper()
	tbl, err := Open().CreateTable("t", []Column{
		{Name: "k", Kind: Int64},
		{Name: "f", Kind: Float64, Nullable: true},
		{Name: "s", Kind: String},
	}, WithPrimaryKey("k"), WithChunkRows(64))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
		if state == "frozen" && i == len(rows)-1 || state == "half frozen" && i == len(rows)/2 {
			if err := tbl.FreezeAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := tbl.Stats()
	if hot := st.HotChunks > 0; hot != (state != "frozen") || (st.FrozenChunks > 0) != (state != "hot") {
		t.Fatalf("%s: %d hot and %d frozen chunks", state, st.HotChunks, st.FrozenChunks)
	}
	return tbl
}

var sargStates = []string{"hot", "frozen", "half frozen"}

// TestPredicateKindMismatchIsAnError: a predicate whose constant is not of
// its column's kind (or is NULL), or whose operator does not exist for the
// kind, is one and the same error from every scan mode, over hot, frozen
// and mixed storage, serial and parallel — never an answer from one path,
// an error from the second and a panic in a morsel worker from the third.
func TestPredicateKindMismatchIsAnError(t *testing.T) {
	rows := make([]Row, 300)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Float(float64(i) / 2), Str(fmt.Sprint("s", i%7))}
	}
	bad := []Pred{
		{Col: "k", Op: Le, Lo: Float(1.5)},
		{Col: "f", Op: Gt, Lo: Int(1)},
		{Col: "s", Op: Eq, Lo: Int(1)},
		{Col: "k", Op: Between, Lo: Int(1), Hi: Float(2)},
		{Col: "k", Op: Prefix, Lo: Int(1)},
		{Col: "f", Op: Prefix, Lo: Float(1)},
		{Col: "k", Op: Eq, Lo: Null(Int64)},
	}
	for _, state := range sargStates {
		tbl := sargTable(t, state, rows)
		for _, p := range bad {
			want := ""
			for _, mode := range sargModes {
				for _, par := range []int{1, 2} {
					name := fmt.Sprintf("%s/%v %v %v/mode=%v/par=%d", state, p.Col, p.Op, p.Lo, mode, par)
					res, err := tbl.Scan([]string{"k"}, []Pred{p}, QueryOptions{Mode: mode, Parallelism: par})
					if err == nil {
						t.Fatalf("%s: %d rows, want an error", name, res.NumRows())
					}
					if want == "" {
						want = err.Error()
					}
					if err.Error() != want {
						t.Fatalf("%s: error %q, other paths say %q", name, err, want)
					}
				}
			}
		}
		// The well-formed neighbour still answers.
		res, err := tbl.Scan([]string{"k"}, []Pred{{Col: "k", Op: Le, Lo: Int(1)}}, QueryOptions{Mode: ModeVectorizedSARG})
		if err != nil || res.NumRows() != 2 {
			t.Fatalf("%s: k <= 1: %v rows, err %v", state, res, err)
		}
	}
}

// TestNaNSurvivesFreeze: a NaN between two equal values is not folded into
// them when the chunk freezes (its SMA bounds must not read "single value
// 1"), neither in RAM nor through the serialized block.
func TestNaNSurvivesFreeze(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("t", []Column{{Name: "k", Kind: Int64}, {Name: "f", Kind: Float64}}, WithPrimaryKey("k"))
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range []float64{1, math.NaN(), 1} {
		if _, err = tbl.Insert(Row{Int(int64(k)), Float(f)}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, tbl *Table) {
		t.Helper()
		for k, wantNaN := range []bool{false, true, false} {
			row, ok := tbl.Lookup(int64(k))
			if !ok {
				t.Fatalf("%s: key %d lost", when, k)
			}
			if f := row[1].Float(); math.IsNaN(f) != wantNaN || !wantNaN && f != 1 {
				t.Fatalf("%s: key %d reads %v", when, k, f)
			}
		}
	}
	check("hot", tbl)
	if err = tbl.FreezeAll(); err != nil {
		t.Fatal(err)
	}
	check("frozen", tbl)
	if err = db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check("reopened", db.Table("t"))
}

// TestNaNComparesByIEEE: every comparison with NaN is false and <> is true,
// in every scan mode over hot and frozen chunks — checked against a row
// loop that uses Go's own operators. Chunks with and without a NaN, with
// NULLs and with both zeros are all present.
func TestNaNComparesByIEEE(t *testing.T) {
	vals := []float64{1, math.NaN(), 2, math.Copysign(0, -1), 0.5, -3, math.Inf(1), 0}
	rows := make([]Row, 64*4)
	for i := range rows {
		f := Float(vals[(i*5+i/64)%len(vals)])
		switch {
		case i/64 == 1 && math.IsNaN(f.Float()): // a chunk without NaN
			f = Float(7)
		case i/64 == 2: // a chunk of {1, NaN, 1, …}: the single-value trap
			f = Float([]float64{1, math.NaN()}[i%2])
		case i%11 == 0:
			f = Null(Float64)
		}
		rows[i] = Row{Int(int64(i)), f, Str("x")}
	}
	nan := math.NaN()
	preds := []struct {
		p    Pred
		test func(f float64) bool
	}{
		{Pred{Col: "f", Op: Ge, Lo: Float(0)}, func(f float64) bool { return f >= 0 }},
		{Pred{Col: "f", Op: Ne, Lo: Float(1)}, func(f float64) bool { return f != 1 }},
		{Pred{Col: "f", Op: Between, Lo: Float(0), Hi: Float(2)}, func(f float64) bool { return f >= 0 && f <= 2 }},
		{Pred{Col: "f", Op: Lt, Lo: Float(1)}, func(f float64) bool { return f < 1 }},
		{Pred{Col: "f", Op: Eq, Lo: Float(1)}, func(f float64) bool { return f == 1 }},
		{Pred{Col: "f", Op: Eq, Lo: Float(nan)}, func(f float64) bool { return f == nan }},
		{Pred{Col: "f", Op: Ne, Lo: Float(nan)}, func(f float64) bool { return f != nan }},
		{Pred{Col: "f", Op: Le, Lo: Float(nan)}, func(f float64) bool { return f <= nan }},
	}
	for _, state := range sargStates {
		tbl := sargTable(t, state, rows)
		for _, pr := range preds {
			var want []int64
			for _, r := range rows {
				if !r[1].IsNull() && pr.test(r[1].Float()) {
					want = append(want, r[0].Int())
				}
			}
			for _, mode := range sargModes {
				for _, par := range []int{1, 2} {
					name := fmt.Sprintf("%s/f %v %v/mode=%v/par=%d", state, pr.p.Op, pr.p.Lo, mode, par)
					res, err := tbl.Scan([]string{"k"}, []Pred{pr.p}, QueryOptions{Mode: mode, Parallelism: par})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := make([]int64, res.NumRows())
					for i := range got {
						got[i] = res.Value(0, i).Int()
					}
					sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: %d rows, the row loop finds %d\n got %v\nwant %v", name, len(got), len(want), got, want)
					}
				}
			}
		}
	}
}
