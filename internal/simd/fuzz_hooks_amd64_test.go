//go:build amd64

package simd

// The fuzz hooks force the AVX2 kernels regardless of the dispatch state,
// mirroring Find's, Reduce's and MinMaxFloat64's normalization exactly, so
// the differential fuzz targets cover the assembly even on the
// GODEBUG=cpu.avx2=off CI leg. Gated on hardware capability, not on
// avx2Active.

func init() {
	if !cpuHasAVX2 {
		return
	}
	unpackAlt.widen, unpackAlt.bytes = gatherWidenAVX2, gatherBytesAVX2
	fuzzKeyBitsAlt = reduceKeyBitsAVX2
	fuzzFindAlt = func(data []byte, width, n int, op Op, c1, c2 uint64, base uint32) []uint32 {
		lo, hi, ne, empty, all := normalizeU(op, c1, c2, maxFor(width))
		if empty {
			return nil
		}
		out := EnsureCap(nil, n+8)
		if all {
			return appendAll(out, n, base)
		}
		if ne {
			switch width {
			case 1:
				return findNeW1AVX2(data, n, uint8(lo), base, out)
			case 2:
				return findNeW2AVX2(data, n, uint16(lo), base, out)
			case 4:
				return findNeW4AVX2(data, n, uint32(lo), base, out)
			default:
				return findNeW8AVX2(data, n, lo, base, out)
			}
		}
		switch width {
		case 1:
			return findBetweenW1AVX2(data, n, uint8(lo), uint8(hi), base, out)
		case 2:
			return findBetweenW2AVX2(data, n, uint16(lo), uint16(hi), base, out)
		case 4:
			return findBetweenW4AVX2(data, n, uint32(lo), uint32(hi), base, out)
		default:
			return findBetweenW8AVX2(data, n, lo, hi, base, out)
		}
	}
	fuzzMinMaxAlt = func(vals []float64, nulls []bool) (float64, float64, bool) {
		if nulls != nil {
			return minMaxFloat64MaskedAVX2(vals, nulls)
		}
		if len(vals) == 0 {
			return 0, 0, false
		}
		mn, mx := minMaxFloat64DenseAVX2(vals)
		return mn, mx, true
	}
	fuzzReduceAlt = func(data []byte, width int, op Op, c1, c2 uint64, m []uint32) []uint32 {
		lo, hi, ne, empty, all := normalizeU(op, c1, c2, maxFor(width))
		if empty {
			return m[:0]
		}
		if all {
			return m
		}
		if ne {
			switch width {
			case 1:
				return reduceNeW1AVX2(data, uint8(lo), m)
			case 2:
				return reduceNeW2AVX2(data, uint16(lo), m)
			case 4:
				return reduceNeW4AVX2(data, uint32(lo), m)
			default:
				return reduceNeW8AVX2(data, lo, m)
			}
		}
		switch width {
		case 1:
			return reduceBetweenW1AVX2(data, uint8(lo), uint8(hi), m)
		case 2:
			return reduceBetweenW2AVX2(data, uint16(lo), uint16(hi), m)
		case 4:
			return reduceBetweenW4AVX2(data, uint32(lo), uint32(hi), m)
		default:
			return reduceBetweenW8AVX2(data, lo, hi, m)
		}
	}
}
