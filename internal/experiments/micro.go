package experiments

import (
	"fmt"
	"io"
	"time"

	"datablocks/internal/bitpack"
	"datablocks/internal/compress"
	"datablocks/internal/simd"
	"datablocks/internal/xrand"
)

// makeCodes generates n codes uniform in [0, domain) at the given byte
// width.
func makeCodes(n, width int, domain uint64, seed uint64) []byte {
	r := xrand.New(seed)
	data := make([]byte, n*width+8)
	for i := 0; i < n; i++ {
		simd.WriteUint(data, i, width, r.Uint64()%domain)
	}
	return data
}

// Fig8 reproduces Figure 8: speedup of the SWAR between-kernel over
// branch-free scalar code, per lane width, at 20% selectivity.
func Fig8(w io.Writer, n int) error {
	fmt.Fprintln(w, "Figure 8 — SIMD(SWAR) speedup of `l <= A <= r` (selectivity 20%) over scalar code")
	tbl := newTable(w, "width", "scalar ns/elem", "swar ns/elem", "speedup")
	for _, width := range []int{1, 2, 4, 8} {
		domain := uint64(100)
		data := makeCodes(n, width, domain, 42)
		lo, hi := uint64(10), uint64(29) // 20% of [0,100)
		out := make([]uint32, 0, n+8)
		rounds := 50
		scalar := measureBest(5, func() {
			for i := 0; i < rounds; i++ {
				out = simd.FindScalar(data, width, n, simd.OpBetween, lo, hi, 0, out[:0])
			}
		})
		swar := measureBest(5, func() {
			for i := 0; i < rounds; i++ {
				out = simd.Find(data, width, n, simd.OpBetween, lo, hi, 0, out[:0])
			}
		})
		perElemS := float64(scalar.Nanoseconds()) / float64(rounds*n)
		perElemV := float64(swar.Nanoseconds()) / float64(rounds*n)
		addRow(tbl, fmt.Sprintf("%d-bit", width*8), perElemS, perElemV, perElemS/perElemV)
	}
	return tbl.Flush()
}

// Fig9 reproduces Figure 9: cost of applying an additional restriction
// (reduce matches) as a function of the first predicate's selectivity, with
// the second predicate fixed at 40%.
func Fig9(w io.Writer, n int) error {
	fmt.Fprintln(w, "Figure 9 — reduce-matches cost vs selectivity of first predicate (second fixed at 40%)")
	tbl := newTable(w, "width", "sel1 %", "scalar ns/elem", "swar ns/elem")
	for _, width := range []int{1, 2, 4, 8} {
		domain := uint64(200)
		data := makeCodes(n, width, domain, 7)
		for _, sel := range []int{1, 10, 25, 50, 75, 100} {
			// First predicate: uniform matches at the given selectivity.
			hi1 := domain * uint64(sel) / 100
			if hi1 == 0 {
				hi1 = 1
			}
			matches := simd.Find(data, width, n, simd.OpLt, hi1, 0, 0, nil)
			if len(matches) == 0 {
				continue
			}
			hi2 := domain * 40 / 100 // second predicate: 40%
			scratch := make([]uint32, len(matches))
			rounds := 100
			scalar := measureBest(3, func() {
				for i := 0; i < rounds; i++ {
					copy(scratch, matches)
					_ = simd.ReduceScalar(data, width, simd.OpLt, hi2, 0, scratch[:len(matches)])
				}
			})
			swar := measureBest(3, func() {
				for i := 0; i < rounds; i++ {
					copy(scratch, matches)
					_ = simd.Reduce(data, width, simd.OpLt, hi2, 0, scratch[:len(matches)])
				}
			})
			perS := float64(scalar.Nanoseconds()) / float64(rounds*len(matches))
			perV := float64(swar.Nanoseconds()) / float64(rounds*len(matches))
			addRow(tbl, fmt.Sprintf("%d-bit", width*8), sel, perS, perV)
		}
	}
	return tbl.Flush()
}

// Fig12Data builds the §5.4 microbenchmark inputs: three columns of 2^16
// values; A and B span [0, 2^16] (17 bits — bit-packing wins on space,
// Data Blocks must take 4-byte codes) and C spans [0, 2^8] (9 bits vs
// 2-byte codes).
type Fig12Data struct {
	N       int
	AVals   []int64
	ACodes  *compress.IntVector
	BCodes  *compress.IntVector
	CCodes  *compress.IntVector
	APacked *bitpack.Vector
	BPacked *bitpack.Vector
	CPacked *bitpack.Vector
}

// NewFig12Data generates the microbenchmark columns.
func NewFig12Data() (*Fig12Data, error) {
	n := 1 << 16
	r := xrand.New(99)
	d := &Fig12Data{N: n}
	mk := func(domain int64) ([]int64, []uint32) {
		vals := make([]int64, n)
		u32 := make([]uint32, n)
		for i := range vals {
			vals[i] = r.Range(0, domain)
			u32[i] = uint32(vals[i])
		}
		return vals, u32
	}
	var aU, bU, cU []uint32
	var bVals, cVals []int64
	d.AVals, aU = mk(1 << 16)
	bVals, bU = mk(1 << 16)
	cVals, cU = mk(1 << 8)
	d.ACodes = compress.EncodeInts(d.AVals, nil)
	d.BCodes = compress.EncodeInts(bVals, nil)
	d.CCodes = compress.EncodeInts(cVals, nil)
	var err error
	if d.APacked, err = bitpack.Pack(aU, 17); err != nil {
		return nil, err
	}
	if d.BPacked, err = bitpack.Pack(bU, 17); err != nil {
		return nil, err
	}
	if d.CPacked, err = bitpack.Pack(cU, 9); err != nil {
		return nil, err
	}
	return d, nil
}

// fig12Matches evaluates 0 <= A <= hi into a match vector, honoring the
// translation verdict (an All verdict selects every row).
func fig12Matches(d *Fig12Data, n int, hi uint64) []uint32 {
	tr := d.ACodes.TranslateRange(0, int64(hi))
	switch tr.Verdict {
	case compress.All:
		return simd.Sequence(nil, n, 0)
	case compress.Range:
		return simd.Find(d.ACodes.Data, d.ACodes.Width, n, simd.OpBetween, tr.C1, tr.C2, 0, nil)
	default:
		return nil
	}
}

// Fig12 reproduces Figure 12: (a) SARG evaluation cost and (b) unpack cost
// per matching tuple, Data Blocks vs horizontal bit-packing, across
// selectivities.
func Fig12(w io.Writer) error {
	d, err := NewFig12Data()
	if err != nil {
		return err
	}
	n := d.N
	fmt.Fprintln(w, "Figure 12(a) — SARG `l <= A <= r` cost (ns/tuple) vs selectivity")
	ta := newTable(w, "sel %", "data blocks", "bit-packed (branchy)", "bit-packed + positions table")
	bm := make([]uint64, (n+63)/64)
	out := make([]uint32, 0, n+8)
	for _, sel := range []int{0, 10, 25, 50, 75, 100} {
		hi := uint64(1<<16) * uint64(sel) / 100
		rounds := 30
		db := measureBest(3, func() {
			for i := 0; i < rounds; i++ {
				tr := d.ACodes.TranslateRange(0, int64(hi))
				if tr.Verdict == compress.Range {
					out = simd.Find(d.ACodes.Data, d.ACodes.Width, n, simd.OpBetween, tr.C1, tr.C2, 0, out[:0])
				}
			}
		})
		bpBranchy := measureBest(3, func() {
			for i := 0; i < rounds; i++ {
				d.APacked.FindBetweenBitmap(0, uint32(hi), bm)
				out = simd.PositionsFromBitmapBranchy(bm, n, 0, out[:0])
			}
		})
		bpTable := measureBest(3, func() {
			for i := 0; i < rounds; i++ {
				d.APacked.FindBetweenBitmap(0, uint32(hi), bm)
				out = simd.PositionsFromBitmap(bm, n, 0, out[:0])
			}
		})
		per := func(t time.Duration) float64 { return float64(t.Nanoseconds()) / float64(rounds*n) }
		addRow(ta, sel, per(db), per(bpBranchy), per(bpTable))
	}
	if err := ta.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nFigure 12(b) — unpacking 3 attributes, ns per matching tuple vs selectivity")
	tb := newTable(w, "sel %", "data blocks", "bit-packed positional", "bit-packed unpack-all+filter")
	outI := make([]int64, n)
	outU := make([]uint32, n)
	full := make([]uint32, n)
	for _, sel := range []int{1, 10, 25, 50, 75, 100} {
		hi := uint64(1<<16) * uint64(sel) / 100
		if hi == 0 {
			hi = 1
		}
		matches := fig12Matches(d, n, hi)
		if len(matches) == 0 {
			continue
		}
		rounds := 20
		db := measureBest(3, func() {
			for i := 0; i < rounds; i++ {
				d.ACodes.Gather(matches, outI[:len(matches)])
				d.BCodes.Gather(matches, outI[:len(matches)])
				d.CCodes.Gather(matches, outI[:len(matches)])
			}
		})
		bpPos := measureBest(3, func() {
			for i := 0; i < rounds; i++ {
				d.APacked.GatherPositions(matches, outU[:len(matches)])
				d.BPacked.GatherPositions(matches, outU[:len(matches)])
				d.CPacked.GatherPositions(matches, outU[:len(matches)])
			}
		})
		bpAll := measureBest(3, func() {
			for i := 0; i < rounds; i++ {
				for _, v := range []*bitpack.Vector{d.APacked, d.BPacked, d.CPacked} {
					v.UnpackAll(full)
					for j, p := range matches {
						outU[j] = full[p]
					}
				}
			}
		})
		per := func(t time.Duration) float64 {
			return float64(t.Nanoseconds()) / float64(rounds*len(matches))
		}
		addRow(tb, sel, per(db), per(bpPos), per(bpAll))
	}
	return tb.Flush()
}
