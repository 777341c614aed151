package main

import (
	"math"
	"sort"
)

// tailReserve is the number of samples that must lie beyond a reported
// percentile: with fewer, the tail value is decided by a handful of
// outliers and does not repeat between runs.
const tailReserve = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample. ok is false when fewer than tailReserve samples lie
// beyond the returned one (the median is exempt: it has half the sample on
// either side), in which case the value must not be reported end to end.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k], p <= 50 || n-1-k >= tailReserve
}

// sample is a set of timings of one operation class, in the unit of the
// metric they feed.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median of the sample, averaging the middle pair like Python's
// statistics.median.
func (s sample) median() float64 { return median(s.sorted()) }

// sliceRates turns completion timestamps (nanoseconds, any order) into the
// throughput of consecutive slices of per completions each, in 1/s. A
// trailing partial slice is dropped; with fewer than per completions the
// whole span is one slice.
func sliceRates(doneNs []int64, startNs int64, per int) sample {
	ts := append([]int64(nil), doneNs...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	if len(ts) == 0 {
		return nil
	}
	if len(ts) < per {
		per = len(ts)
	}
	var rates sample
	prev := startNs
	for i := per; i <= len(ts); i += per {
		end := ts[i-1]
		if end > prev {
			rates = append(rates, float64(per)/(float64(end-prev)/1e9))
		}
		prev = end
	}
	return rates
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// spread the driver computes over ten runs.
func quartileSpread(values []float64) float64 {
	xs := sample(values).sorted()
	n := len(xs)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return xs[j-1] + delta*(xs[j]-xs[j-1])
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// median of an ascending slice, averaging the middle pair like Python's
// statistics.median.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
