// Command dbrepro regenerates the paper's tables and figures (§5 and the
// appendices) on laptop-scale data. Each subcommand prints the same rows or
// series the paper reports; "Reproducing the paper" in the repository
// README says what each one reproduces.
//
// Usage:
//
//	dbrepro [flags] <experiment>
//
// Experiments: table1 table2 table3 tpcc fig5 fig8 fig9 fig10 fig11 fig12
// fig13 flights all
package main

import (
	"flag"
	"fmt"
	"os"

	"datablocks/internal/experiments"
)

func main() {
	var (
		sf       = flag.Float64("sf", 0.05, "TPC-H scale factor")
		rows     = flag.Int("rows", 400_000, "rows for IMDB/flights data sets")
		rounds   = flag.Int("rounds", 3, "measurement rounds (median reported)")
		lookups  = flag.Int("lookups", 20_000, "table3: point queries in a cell's first timed round (scans run 1/100 of them)")
		txCount  = flag.Int("tx", 20_000, "transactions for tpcc")
		parallel = flag.Int("parallel", 0, "query parallelism (<=0: all of GOMAXPROCS)")
		combos   = flag.Int("combos", 4096, "max storage-layout combinations for fig5")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dbrepro [flags] <experiment>\n\nexperiments:\n")
		fmt.Fprintf(os.Stderr, "  table1   database sizes (Table 1)\n")
		fmt.Fprintf(os.Stderr, "  table2   TPC-H runtimes per scan type (Table 2/4)\n")
		fmt.Fprintf(os.Stderr, "  table3   point-access throughput (Table 3)\n")
		fmt.Fprintf(os.Stderr, "  tpcc     TPC-C throughput (§5.3)\n")
		fmt.Fprintf(os.Stderr, "  fig5     compile-time explosion (Figure 5)\n")
		fmt.Fprintf(os.Stderr, "  fig8     SIMD find-matches speedup (Figure 8)\n")
		fmt.Fprintf(os.Stderr, "  fig9     SIMD reduce-matches (Figure 9)\n")
		fmt.Fprintf(os.Stderr, "  fig10    compression ratio vs block size (Figure 10)\n")
		fmt.Fprintf(os.Stderr, "  fig11    Q6 on sorted blocks (Figure 11)\n")
		fmt.Fprintf(os.Stderr, "  fig12    bit-packing vs byte-aligned codes (Figure 12)\n")
		fmt.Fprintf(os.Stderr, "  fig13    vector-size sweep (Figure 13 / Appendix A)\n")
		fmt.Fprintf(os.Stderr, "  flights  Appendix D flights query\n")
		fmt.Fprintf(os.Stderr, "  all      everything above\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	w := os.Stdout
	run := func(name string) error {
		switch name {
		case "table1":
			return experiments.Table1(w, *sf, *rows, *rows)
		case "table2":
			return experiments.Table2(w, *sf, *rounds, *parallel)
		case "table3":
			return experiments.Table3(w, *sf, *lookups)
		case "tpcc":
			return experiments.TPCC(w, *txCount, *rounds)
		case "fig5":
			return experiments.Fig5(w, *combos)
		case "fig8":
			return experiments.Fig8(w, 1<<14)
		case "fig9":
			return experiments.Fig9(w, 1<<14)
		case "fig10":
			return experiments.Fig10(w, *sf, *rows, *rows)
		case "fig11":
			return experiments.Fig11(w, *sf, *rounds)
		case "fig12":
			return experiments.Fig12(w)
		case "fig13":
			return experiments.Fig13(w, *sf, *rounds)
		case "flights":
			return experiments.FlightsQuery(w, *rows, *rounds)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	name := flag.Arg(0)
	if name == "all" {
		for _, e := range []string{"table1", "table2", "table3", "tpcc", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "flights"} {
			fmt.Fprintf(w, "==== %s ====\n", e)
			if err := run(e); err != nil {
				fmt.Fprintf(os.Stderr, "dbrepro %s: %v\n", e, err)
				os.Exit(1)
			}
			fmt.Fprintln(w)
		}
		return
	}
	if err := run(name); err != nil {
		fmt.Fprintf(os.Stderr, "dbrepro: %v\n", err)
		os.Exit(1)
	}
}
