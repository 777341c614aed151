package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"datablocks/internal/storage"
	"datablocks/internal/types"
)

func TestGeoMean(t *testing.T) {
	if got := geoMean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("geoMean(1,100) = %g", got)
	}
	if got := geoMean([]float64{4, 4, 4}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("geoMean(4,4,4) = %g", got)
	}
	if geoMean(nil) != 0 {
		t.Fatal("empty geoMean should be 0")
	}
}

func TestMeasureBest(t *testing.T) {
	d := measureBest(3, func() { time.Sleep(time.Millisecond) })
	if d < time.Millisecond {
		t.Fatalf("median %v below sleep duration", d)
	}
	if d := measureBest(0, func() {}); d < 0 {
		t.Fatal("rounds=0 must still measure")
	}
}

func TestTableRendering(t *testing.T) {
	var sb strings.Builder
	tbl := newTable(&sb, "name", "value")
	addRow(tbl, "alpha", 1.5)
	addRow(tbl, "a-much-longer-name", 42*time.Millisecond)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns align: the second column starts past the longest first cell,
	// at the same offset on every line.
	col := strings.Index(lines[0], "value")
	if col <= len("a-much-longer-name") || !strings.HasPrefix(lines[1][col:], "1.500") ||
		!strings.HasPrefix(lines[2][col:], "42ms") {
		t.Fatalf("bad rendering:\n%s", out)
	}
}

func TestCSVSize(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.Int64},
		types.Column{Name: "s", Kind: types.String, Nullable: true},
	)
	rel := storage.NewRelation(schema, 0)
	rel.Insert(types.Row{types.IntValue(123), types.StringValue("abc")})
	rel.Insert(types.Row{types.IntValue(-4), types.NullValue(types.String)})
	// row1: "123"+"abc"+2 = 8; row2: "-4"+""+2 = 4
	if got := csvSize(rel); got != 12 {
		t.Fatalf("csvSize = %d, want 12", got)
	}
}

func TestBytes(t *testing.T) {
	cases := map[int]string{
		512:     "512 B",
		2048:    "2.00 KB",
		3 << 20: "3.00 MB",
		5 << 30: "5.00 GB",
	}
	for n, want := range cases {
		if got := humanBytes(n); got != want {
			t.Fatalf("humanBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
