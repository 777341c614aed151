package datasets

import (
	"testing"

	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/types"
)

func TestCastInfoShape(t *testing.T) {
	rel, err := CastInfo(20000, 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 20000 {
		t.Fatalf("rows = %d", rel.NumRows())
	}
	// NULL-heavy columns must actually contain NULLs.
	nullCount := 0
	for _, ch := range rel.Chunks() {
		if nulls := ch.Hot().Columns(ch.Rows())[4].Nulls; nulls != nil {
			for _, b := range nulls {
				if b {
					nullCount++
				}
			}
		}
	}
	if nullCount < 10000 {
		t.Fatalf("note nulls = %d, want most rows", nullCount)
	}
	// The relation compresses well (sparse domains, heavy NULLs).
	if err := rel.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		t.Fatal(err)
	}
}

func TestFlightsOrderedAndQueried(t *testing.T) {
	rel, err := Flights(60000, 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	// Natural date order.
	yearCol := rel.Schema().MustColumn("year")
	dateCol := rel.Schema().MustColumn("flightdate")
	prev := int64(-1 << 62)
	for _, ch := range rel.Chunks() {
		for _, d := range ch.Hot().Columns(ch.Rows())[dateCol].Ints {
			if d < prev {
				t.Fatal("flights not ordered by date")
			}
			prev = d
		}
	}
	if err := rel.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		t.Fatal(err)
	}
	// SMA skipping: most blocks fall outside 1998-2008.
	skipped := 0
	for _, ch := range rel.Chunks() {
		sc, err := core.NewScanner(ch.Block(), core.ScanSpec{
			Preds: []core.Predicate{
				{Col: yearCol, Op: types.Between, Lo: types.IntValue(1998), Hi: types.IntValue(2008)},
				{Col: rel.Schema().MustColumn("dest"), Op: types.Eq, Lo: types.StringValue("SFO")},
			},
			UsePSMA: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sc.SkippedBySMA() {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no blocks skipped despite natural date order")
	}
	// The Appendix D query runs in all modes with identical shape.
	var refRows int
	for _, mode := range []exec.ScanMode{exec.ModeJIT, exec.ModeVectorized, exec.ModeVectorizedSARG, exec.ModeVectorizedSARGPSMA} {
		res, err := exec.Run(FlightsQuery(rel), exec.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() == 0 {
			t.Fatalf("mode %v: empty result", mode)
		}
		if refRows == 0 {
			refRows = res.NumRows()
		} else if res.NumRows() != refRows {
			t.Fatalf("mode %v: %d carriers, want %d", mode, res.NumRows(), refRows)
		}
		// Delays sorted descending.
		for i := 1; i < res.NumRows(); i++ {
			if res.Cols[1].Floats[i] > res.Cols[1].Floats[i-1] {
				t.Fatal("not sorted by avg delay desc")
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Flights(5000, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Flights(5000, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := exec.Run(FlightsQuery(a), exec.Options{Mode: exec.ModeVectorizedSARG})
	rb, _ := exec.Run(FlightsQuery(b), exec.Options{Mode: exec.ModeVectorizedSARG})
	if ra.String() != rb.String() {
		t.Fatal("non-deterministic generation")
	}
}
