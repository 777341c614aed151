package simd

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// foldRows is GroupFold's oracle, a row at a time: each row bumps its
// group's cell 0 and adds column j's value to cell 1 + j, wrapping.
func foldRows(cells []int64, w int, gids []uint32, cols [][]int64) {
	for r, g := range gids {
		cells[int(g)*w]++
		for j, c := range cols {
			cells[int(g)*w+1+j] += c[r]
		}
	}
}

// foldCase draws n gids over groups and k columns of values near ±2^62,
// so that a group's cell wraps within a few rows, and a block of w cells
// per group already holding values — the pass must add to them, and leave
// the cells past 1 + k alone.
func foldCase(r *rand.Rand, n, groups, k, w int) (cells []int64, gids []uint32, cols [][]int64) {
	gids = make([]uint32, n)
	for i := range gids {
		gids[i] = uint32(r.Intn(groups))
	}
	near := []int64{1 << 62, -1 << 62, 1<<63 - 1, -1 << 63, 0, 1, -1}
	cols = make([][]int64, k)
	for j := range cols {
		cols[j] = make([]int64, n, n+3) // columns may be longer than gids
		for i := range cols[j] {
			cols[j][i] = near[r.Intn(len(near))] + r.Int63n(1<<20) - 1<<19
		}
	}
	cells = make([]int64, groups*w)
	for i := range cells {
		cells[i] = int64(uint64(i) * 0x9e3779b97f4a7c15)
	}
	return cells, gids, cols
}

// TestGroupFoldMatchesRows holds the one-pass fold to the row-at-a-time
// oracle at every arity up to 8 (the columns past the fifth take a
// pass each), over 1, 4, 1 024 and 65 536 groups, lengths
// that are not multiples of 8 and values that wrap, in blocks exactly
// 1 + k cells wide and wider.
func TestGroupFoldMatchesRows(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	for k := 0; k <= 8; k++ {
		for _, groups := range []int{1, 4, 1024, 65536} {
			for _, n := range []int{0, 1, 7, 13, 1001, 8191} {
				for _, w := range []int{1 + k, 3 + k} {
					cells, gids, cols := foldCase(r, n, groups, k, w)
					want := slices.Clone(cells)
					foldRows(want, w, gids, cols)
					GroupFold(cells, w, gids, cols)
					for c := range cells {
						if cells[c] != want[c] {
							t.Fatalf("k=%d groups=%d n=%d w=%d: group %d cell %d = %d, want %d", k, groups, n, w, c/w, c%w, cells[c], want[c])
						}
					}
				}
			}
		}
	}
}

// FuzzGroupFold holds GroupFold to foldRows over arbitrary gids, values,
// arities (0–9) and block widths.
func FuzzGroupFold(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 1}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3}, byte(5), byte(4), byte(0))
	f.Add([]byte{7}, []byte{}, byte(0), byte(1), byte(2))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9}, []byte{0, 0, 0, 0, 0, 0, 0, 0x80}, byte(8), byte(200), byte(1))
	f.Fuzz(func(t *testing.T, gidBytes, valBytes []byte, kB, groupsB, padB byte) {
		k, groups := int(kB%10), 1+int(groupsB)
		w := 1 + k + int(padB%3)
		gids := make([]uint32, len(gidBytes))
		for i, g := range gidBytes {
			gids[i] = uint32(int(g) % groups)
		}
		// Values are read from valBytes 8 bytes at a time, round robin, so
		// every column has a value per row however short valBytes is.
		cols := make([][]int64, k)
		for j := range cols {
			cols[j] = make([]int64, len(gids))
			for i := range cols[j] {
				var v [8]byte
				for b := range v {
					if len(valBytes) > 0 {
						v[b] = valBytes[(8*(i*k+j)+b)%len(valBytes)]
					}
				}
				cols[j][i] = int64(binary.LittleEndian.Uint64(v[:]))
			}
		}
		cells := make([]int64, groups*w)
		for i := range cells {
			cells[i] = int64(i) << 58
		}
		want := slices.Clone(cells)
		foldRows(want, w, gids, cols)
		GroupFold(cells, w, gids, cols)
		if !slices.Equal(cells, want) {
			t.Fatalf("k=%d groups=%d w=%d gids %v: %v, want %v", k, groups, w, gids, cells, want)
		}
	})
}

// countPass and addPass are the per-column passes GroupFold replaces: the
// row count, then one read-modify-write chain per sum.
func countPass(counts []int64, gids []uint32) {
	for _, g := range gids {
		counts[g]++
	}
}

func addPass(sums []int64, gids []uint32, vals []int64) {
	vals = vals[:len(gids)]
	for i, g := range gids {
		sums[g] += vals[i]
	}
}

// q1Gids draws n gids the way TPC-H Q1's batches bring them: 4 groups of
// 25, 25, 49 and 1 % of the rows, in runs of 1–7 rows.
func q1Gids(r *rand.Rand, n int) []uint32 {
	gids := make([]uint32, n)
	for i := 0; i < n; {
		g, p := uint32(3), r.Intn(100)
		switch {
		case p < 25:
			g = 0
		case p < 50:
			g = 1
		case p < 99:
			g = 2
		}
		for run := 1 + r.Intn(7); run > 0 && i < n; run-- {
			gids[i] = g
			i++
		}
	}
	return gids
}

// BenchmarkGroupFold times the one pass against a pass per column (the
// row count, then each sum) over 8 192 gids, at 4 (Q1-shaped), 16, 1 024
// and 65 536 groups × 0, 1, 2 and 5 sums; ns/row is per gid.
//
//	go test -run '^$' -bench GroupFold -benchtime 2000x -count 2 ./internal/simd
func BenchmarkGroupFold(b *testing.B) {
	const n = 8192
	r := rand.New(rand.NewSource(1))
	for _, groups := range []int{4, 16, 1024, 65536} {
		gids := q1Gids(r, n)
		if groups != 4 {
			for i := range gids {
				gids[i] = uint32(r.Intn(groups))
			}
		}
		for _, k := range []int{0, 1, 2, 5} {
			cols := make([][]int64, k)
			for j := range cols {
				cols[j] = make([]int64, n)
				for i := range cols[j] {
					cols[j][i] = r.Int63n(1 << 20)
				}
			}
			cells, rows, parts := make([]int64, groups*(1+k)), make([]int64, groups), make([][]int64, k)
			for j := range parts {
				parts[j] = make([]int64, groups)
			}
			perRow := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			}
			b.Run(fmt.Sprintf("g=%d/k=%d/one-pass", groups, k), func(b *testing.B) {
				for range b.N {
					GroupFold(cells, 1+k, gids, cols)
				}
				perRow(b)
			})
			b.Run(fmt.Sprintf("g=%d/k=%d/per-column", groups, k), func(b *testing.B) {
				for range b.N {
					countPass(rows, gids)
					for j, c := range cols {
						addPass(parts[j], gids, c)
					}
				}
				perRow(b)
			})
		}
	}
}
