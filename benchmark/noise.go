package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
)

var errNoise = errors.New("a metric's spread within a set, or its drift between two sets of runs of the same code, exceeds its bound")

// checkNoiseCmd is the benchmark's own acceptance test. It runs every
// workload 2xN times — two sets, A and B, alternating, each run with
// another seed — and applies the driver's two rules to every (workload,
// end-to-end metric) pair:
//
//   - spread: within each set, the distance between the first and third
//     quartile as a share of the median stays within the metric's bound
//     (setup_s is exempt);
//   - drift: set B's median is not worse than set A's by more than the
//     bound.
//
// It prints both medians, the gap, both spreads and the bound for every
// pair and returns errNoise when a rule is broken. -workload restricts it
// to one workload.
func checkNoiseCmd(cfg config, n int) error {
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, name := range names {
				c := cfg
				c.workload = name
				c.seed = cfg.seed + uint64(2*i+set)
				res, err := runWorkload(c)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, c.seed, err)
				}
				out := res.out
				if !out.Correct {
					return fmt.Errorf("%s seed %d: incorrect result (%d of %d operations failed)", name, c.seed, out.Failed, out.Attempted)
				}
				for m, v := range out.Metrics {
					k := key{name, m}
					sets[set][k] = append(sets[set][k], v.Value)
					fmt.Fprintf(os.Stderr, "RAW %c %s %d %s %v\n", 'A'+set, name, c.seed, m, v.Value)
				}
				fmt.Fprintf(os.Stderr, "RAW %c %s %d host.calib_ms %v\n", 'A'+set, name, c.seed, (res.calib[0]+res.calib[1])/2)
				fmt.Fprintf(os.Stderr, "check-noise: run %d/%d set %c %s done\n", i+1, n, 'A'+set, name)
			}
		}
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	fmt.Printf("%-13s %-26s %14s %14s %8s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "gap", "iqr A", "iqr B", "bound", "verdict")
	violations := 0
	for _, name := range names {
		for _, d := range defs {
			a, b := sets[0][key{name, d.Name}], sets[1][key{name, d.Name}]
			sort.Float64s(a)
			sort.Float64s(b)
			ma, mb := median(a), median(b)
			// gap > 0 means set B is worse than set A.
			gap := 0.0
			if ma != 0 {
				gap = (mb - ma) / math.Abs(ma)
				if d.Better == "higher" {
					gap = -gap
				}
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "ok"
			if d.Bound > 0 {
				if gap > d.Bound {
					verdict = "DRIFT"
				}
				if d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound) {
					verdict = "SPREAD"
				}
				if verdict != "ok" {
					violations++
				}
			}
			fmt.Printf("%-13s %-26s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				name, d.Name, ma, mb, 100*gap, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	if violations > 0 {
		return fmt.Errorf("%d (workload, metric) pairs: %w", violations, errNoise)
	}
	return nil
}
