package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// measureBest runs f rounds times and returns the median duration, the
// paper's methodology ("runtimes are the median of several measurements").
func measureBest(rounds int, f func()) time.Duration {
	times := make([]time.Duration, max(rounds, 1))
	for i := range times {
		start := time.Now()
		f()
		times[i] = time.Since(start)
	}
	slices.Sort(times)
	return times[len(times)/2]
}

// geoMean returns the geometric mean of positive values, the paper's
// summary statistic for TPC-H (Table 2).
func geoMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}

// newTable starts an aligned text table on w with the given header row;
// the caller writes rows with addRow and ends with Flush.
func newTable(w io.Writer, header ...string) *tabwriter.Writer {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	return tw
}

// addRow writes one table row: floats to three decimals, durations to the
// microsecond, anything else with %v.
func addRow(tw *tabwriter.Writer, cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(tw, "%.3f", v)
		case time.Duration:
			fmt.Fprint(tw, v.Round(time.Microsecond))
		default:
			fmt.Fprint(tw, v)
		}
	}
	fmt.Fprintln(tw)
}

// csvSize estimates the size of a relation rendered as CSV (the
// "uncompressed CSV" row of Table 1): textual field widths plus separators.
func csvSize(rel *storage.Relation) int {
	size := 0
	ncols := rel.Schema().NumColumns()
	for _, ch := range rel.Chunks() {
		rows := ch.Rows()
		for row := 0; row < rows; row++ {
			size += ncols // separators + newline
			for col := 0; col < ncols; col++ {
				var v types.Value
				if ch.IsFrozen() {
					v = ch.Block().Value(col, row)
				} else {
					v = ch.Hot().Value(col, row)
				}
				if v.IsNull() {
					continue
				}
				switch v.Kind() {
				case types.Int64:
					size += len(strconv.FormatInt(v.Int(), 10))
				case types.Float64:
					size += 8
				default:
					size += len(v.Str())
				}
			}
		}
	}
	return size
}

// humanBytes renders a byte count human-readably.
func humanBytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
