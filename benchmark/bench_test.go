package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true},   // ten beyond: 91..100
		{99, 90, 90, false},   // nine beyond
		{200, 95, 190, true},  // ten beyond
		{199, 95, 190, false}, // nine beyond
		{100, 95, 95, false},
		{1000, 99, 990, true},
		{3, 50, 2, true}, // the median needs no reserve
		{1, 50, 1, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("empty sample reported a percentile")
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "tx", Start: 0, End: 100},
		{ID: 2, Name: "lookup", Start: 10, End: 30, Parent: 1},
		{ID: 3, Name: "insert", Start: 20, End: 50, Parent: 1}, // overlaps lookup by 10
		{ID: 4, Name: "insert", Start: 60, End: 70, Parent: 1},
		{ID: 5, Name: "wal", Start: 62, End: 68, Parent: 4},
		{ID: 6, Name: "late", Start: 90, End: 120, Parent: 1}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"tx":     100 - (40 + 10 + 10), // [10,50] + [60,70] + [90,100]
		"lookup": 20,
		"insert": 30 + (10 - 6),
		"wal":    6,
		"late":   30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %q = %d, want %d", name, got[name], w)
		}
	}
}

func TestSliceRates(t *testing.T) {
	// 10 completions, one every 100 ms, from two clients in any order.
	var done []int64
	for i := 10; i >= 1; i-- {
		done = append(done, int64(i)*100e6)
	}
	rates := sliceRates(done, 0, 5)
	if len(rates) != 2 || math.Abs(rates[0]-10) > 1e-9 || math.Abs(rates[1]-10) > 1e-9 {
		t.Fatalf("slice rates = %v, want [10 10]", rates)
	}
	if r := sliceRates(done[:3], 700e6, 5); len(r) != 1 || math.Abs(r[0]-10) > 1e-9 {
		t.Fatalf("short sample rates = %v, want [10]", r)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{3, 1, 2, 10, 9, 8, 4, 5, 7, 6}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 11, 13, 20], n=4) == [10.25, 12.0, 18.25]
	if got, want := quartileSpread([]float64{10, 11, 13, 20}), 8.0/12.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

// benchmarkJSON mirrors the committed BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON keeps the names, units, directions,
// bounds, workloads and run length in BENCHMARK.json equal to what the
// program emits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if float64(b.RunSeconds) != refSeconds {
		t.Errorf("run_seconds = %d, the work counts are sized for %v", b.RunSeconds, refSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalogue %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		j := b.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, j, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmokeRunEmitsTheCatalogue builds the benchmark and runs every
// workload at smoke scale the way the driver does, untraced and traced,
// under two seeds: the last line must be the driver's JSON with exactly
// the catalogue's metric names, and every operation must succeed.
func TestSmokeRunEmitsTheCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark binary")
	}
	bin := filepath.Join(t.TempDir(), "dbbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []string{"1", "2"} {
			for _, traced := range []string{"0", "1"} {
				cmd := exec.Command(bin, "--workload", w.name, "--seed", seed, "--seconds", "1", "--trace", traced, "--scale", "smoke")
				cmd.Dir = root // the driver runs from the checkout root
				stdout, err := cmd.Output()
				if err != nil {
					t.Fatalf("%s seed %s trace %s: %v", w.name, seed, traced, err)
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var out output
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("%s: last line is not the result object: %v", w.name, err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("%s seed %s trace %s: correct=%v attempted=%d failed=%d\n%s", w.name, seed, traced, out.Correct, out.Attempted, out.Failed, stdout)
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
				}
				var got []string
				for name, v := range out.Metrics {
					got = append(got, name)
					if traced == "0" && !(v.Value > 0) {
						t.Errorf("%s seed %s: end-to-end metric %s = %v, must be positive", w.name, seed, name, v.Value)
					}
				}
				want := metricNames(defs)
				sort.Strings(got)
				sort.Strings(want)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("%s trace %s: emitted metrics differ from the catalogue\n got  %v\n want %v", w.name, traced, got, want)
				}
				for _, d := range defs {
					if out.Metrics[d.Name].Unit != d.Unit {
						t.Errorf("%s: metric %s has unit %q, catalogue says %q", w.name, d.Name, out.Metrics[d.Name].Unit, d.Unit)
					}
				}
			}
		}
		if _, err := os.Stat(filepath.Join(root, "benchmark", "out", "trace-"+w.name+".json")); err != nil {
			t.Errorf("traced run left no span file: %v", err)
		}
	}
}

func TestTransactionsArePureFunctionsOfSeedAndID(t *testing.T) {
	a, b := newCH(100, 200, 60, 50, 7), newCH(100, 200, 60, 50, 7)
	c := newCH(100, 200, 60, 50, 8)
	same, differ := true, false
	for n := 0; n < 110; n++ {
		oa, ob, oc := a.order(n, nil), b.order(n, nil), c.order(n, nil)
		if oa.cust != ob.cust || len(oa.lines) != len(ob.lines) || oa.lines[0] != ob.lines[0] {
			same = false
		}
		if oa.cust != oc.cust || len(oa.lines) != len(oc.lines) {
			differ = true
		}
		if len(oa.lines) < 5 || len(oa.lines) > 15 {
			t.Fatalf("order %d has %d lines, want 5..15", n, len(oa.lines))
		}
	}
	if !same {
		t.Error("the same (seed, id) produced different orders")
	}
	if !differ {
		t.Error("another seed produced the same orders")
	}
}
