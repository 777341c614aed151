package exec

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// FuzzKeyFilter holds keyFilter against a map of the keys it was given.
// The keys lie around a center — random, or at either end of int64 — over
// a spread from one word to all of int64, so some pass maxFilterWords and
// turn into tags; they arrive ascending, descending or in random order,
// split over 1–4 workers in batches with NULL rows, and the workers'
// filters are merged as the key pass merges them. No key may be dropped,
// lo..hi must be the keys' range, the filter must hold bits exactly when
// that range fits maxFilterWords words, and a filter with bits must
// admit exactly the keys and count them (span).
func FuzzKeyFilter(f *testing.F) {
	for _, s := range []struct {
		seed                   int64
		n                      uint16
		spread, order, workers uint8
	}{
		{1, 1, 0, 0, 0}, {2, 500, 1, 1, 1}, {3, 1500, 2, 2, 3}, {4, 1999, 3, 0, 2},
		{5, 800, 4, 1, 3}, {6, 800, 5, 2, 1}, {7, 300, 6, 0, 3}, {8, 300, 7, 1, 0},
		{9, 1000, 3, 2, 3}, {10, 1000, 5, 0, 3}, {11, 64, 4, 1, 2}, {12, 1999, 2, 1, 3},
	} {
		f.Add(s.seed, s.n, s.spread, s.order, s.workers)
	}
	spreads := []uint64{1, 64, 4000, 1<<20 - 64, 1 << 20, 1<<20 + 64, 1 << 40, math.MaxUint64}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, spread, order, workers uint8) {
		rng := rand.New(rand.NewSource(seed))
		w := spreads[int(spread)%len(spreads)]
		center := []int64{int64(rng.Uint64()), math.MinInt64, math.MaxInt64 - int64(w-1), -int64(w / 2)}[rng.Intn(4)]
		keys := make([]int64, int(n)%2000+1)
		for i := range keys {
			keys[i] = center + int64(rng.Uint64()%w)
		}
		if rng.Intn(2) == 0 {
			keys = append(keys, center, center+int64(w-1)) // the spread's ends
		}
		switch order % 3 {
		case 0:
			slices.Sort(keys)
		case 1:
			slices.Sort(keys)
			slices.Reverse(keys)
		}
		want := map[int64]bool{}
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, k := range keys {
			want[k] = true
			lo, hi = min(lo, k), max(hi, k)
		}
		// The workers take the keys round robin or in runs, in batches of
		// 1–300 rows, every batch with NULL rows whose cells are random.
		fs := make([]*keyFilter, int(workers)%4+1)
		for i := range fs {
			fs[i] = newKeyFilter()
		}
		var nullVals []int64
		runs := rng.Intn(2) == 0
		for i := 0; i < len(keys); {
			b := min(1+rng.Intn(300), len(keys)-i)
			var ints []int64
			var nulls []bool
			for _, k := range keys[i : i+b] {
				if rng.Intn(8) == 0 {
					v := int64(rng.Uint64())
					ints, nulls, nullVals = append(ints, v), append(nulls, true), append(nullVals, v)
				}
				ints, nulls = append(ints, k), append(nulls, false)
			}
			wk := i * len(fs) / len(keys)
			if !runs {
				wk = rng.Intn(len(fs))
			}
			fs[wk].add(ints, nulls)
			i += b
		}
		kf := fs[0]
		for _, o := range fs[1:] {
			kf.merge(o)
		}
		if kf.lo != lo || kf.hi != hi {
			t.Fatalf("range %d..%d, want %d..%d", kf.lo, kf.hi, lo, hi)
		}
		words := ((uint64(hi)^1<<63)>>6 - (uint64(lo)^1<<63)>>6) + 1
		if (kf.tags == nil) != (words <= maxFilterWords) {
			t.Fatalf("keys over %d words: tags %v, want bits iff at most %d", words, kf.tags != nil, maxFilterWords)
		}
		// Every key passes; with bits, every probe of a key around them,
		// at the int64 ends or among the NULL cells passes iff it is a key.
		probe := slices.Clone(keys)
		if kf.tags == nil {
			for _, k := range keys {
				probe = append(probe, k-1, k+1, k-64, k+64, k+int64(len(kf.bits))<<6)
			}
			probe = append(append(probe, nullVals...), math.MinInt64, math.MaxInt64, lo-1, hi+1, int64(rng.Uint64()))
		}
		m := make([]uint32, len(probe))
		for i := range m {
			m[i] = uint32(i)
		}
		kept := kf.keep(m, probe)
		for i, j := 0, 0; i < len(probe); i++ {
			in := j < len(kept) && kept[j] == uint32(i)
			if in {
				j++
			}
			if want[probe[i]] && !in || kf.tags == nil && in != want[probe[i]] {
				t.Fatalf("key %d (a key: %v): kept %v, tags %v", probe[i], want[probe[i]], in, kf.tags != nil)
			}
		}
		if kf.tags != nil {
			return
		}
		count := 0
		for _, w := range kf.bits {
			count += bits.OnesCount64(w)
		}
		if count != len(want) {
			t.Fatalf("bits hold %d keys, want %d", count, len(want))
		}
		span := 0
		if d := uint64(hi) - uint64(lo); d < 1<<20 && d < 4*uint64(len(want)) {
			span = int(d) + 1
		}
		if got := kf.span(); got != span {
			t.Fatalf("span %d, want %d for %d keys in %d..%d", got, span, len(want), lo, hi)
		}
	})
}
