package simd

import "encoding/binary"

// This file holds the scalar baselines the paper measures against:
//
//   - FindScalar: branch-free scalar code, the "x86" series of Figures 8/9.
//   - ReduceScalar: branch-free scalar reduce, the Figure 9 baseline.
//   - PositionsFromBitmap / PositionsFromBitmapBranchy: the two bitmask →
//     position-vector conversions compared in §5.4 for bit-packed scans.
//
// They share the predicate normalization with the SWAR kernels so that every
// implementation is measured on identical semantics.

func evalU(v, lo, hi uint64, ne bool) uint32 {
	if ne {
		return b2u(v != lo)
	}
	return b2u(v >= lo && v <= hi)
}

// FindScalar appends matching positions using one branch-free scalar
// comparison per element (conditional increment of the write cursor).
func FindScalar(data []byte, width, n int, op Op, c1, c2 uint64, base uint32, out []uint32) []uint32 {
	lo, hi, ne, empty, all := normalizeU(op, c1, c2, maxFor(width))
	if empty {
		return out
	}
	out = EnsureCap(out, n)
	if all {
		return appendAll(out, n, base)
	}
	k := len(out)
	out = out[:cap(out):cap(out)]
	switch width {
	case 1:
		for i := 0; i < n; i++ {
			out[k] = base + uint32(i)
			k += int(evalU(uint64(data[i]), lo, hi, ne))
		}
	case 2:
		for i := 0; i < n; i++ {
			out[k] = base + uint32(i)
			k += int(evalU(uint64(binary.LittleEndian.Uint16(data[i*2:])), lo, hi, ne))
		}
	case 4:
		for i := 0; i < n; i++ {
			out[k] = base + uint32(i)
			k += int(evalU(uint64(binary.LittleEndian.Uint32(data[i*4:])), lo, hi, ne))
		}
	default:
		for i := 0; i < n; i++ {
			out[k] = base + uint32(i)
			k += int(evalU(binary.LittleEndian.Uint64(data[i*8:]), lo, hi, ne))
		}
	}
	return out[:k]
}

// ReduceScalar shrinks a match vector with one branch-free scalar comparison
// per surviving position (the Figure 9 "x86" baseline).
func ReduceScalar(data []byte, width int, op Op, c1, c2 uint64, m []uint32) []uint32 {
	lo, hi, ne, empty, all := normalizeU(op, c1, c2, maxFor(width))
	if empty {
		return m[:0]
	}
	if all {
		return m
	}
	w := 0
	switch width {
	case 1:
		for _, p := range m {
			m[w] = p
			w += int(evalU(uint64(data[p]), lo, hi, ne))
		}
	case 2:
		for _, p := range m {
			m[w] = p
			w += int(evalU(uint64(binary.LittleEndian.Uint16(data[p*2:])), lo, hi, ne))
		}
	case 4:
		for _, p := range m {
			m[w] = p
			w += int(evalU(uint64(binary.LittleEndian.Uint32(data[p*4:])), lo, hi, ne))
		}
	default:
		for _, p := range m {
			m[w] = p
			w += int(evalU(binary.LittleEndian.Uint64(data[p*8:]), lo, hi, ne))
		}
	}
	return m[:w]
}

// PositionsFromBitmapBranchy converts a bitmap of n match bits into a
// position vector by iterating over the bits of each word — the conversion
// whose branch misses make bit-packed scans selectivity-sensitive (§5.4).
func PositionsFromBitmapBranchy(bm []uint64, n int, base uint32, out []uint32) []uint32 {
	out = EnsureCap(out, n)
	for i := 0; i < n; i++ {
		if bm[i>>6]>>(uint(i)&63)&1 == 1 {
			k := len(out)
			out = out[: k+1 : cap(out)]
			out[k] = base + uint32(i)
		}
	}
	return out
}

// PositionsFromBitmap converts a bitmap into a position vector using the
// precomputed positions table, eight bits at a time — the fix the paper
// applies to make bit-packing robust in Figure 12a.
func PositionsFromBitmap(bm []uint64, n int, base uint32, out []uint32) []uint32 {
	out = EnsureCap(out, n+8)
	i := 0
	for ; i+64 <= n; i += 64 {
		w := bm[i>>6]
		for b := 0; b < 64; b += 8 {
			out = emit(out, uint32(w>>uint(b))&0xFF, base+uint32(i+b))
		}
	}
	for ; i < n; i++ {
		if bm[i>>6]>>(uint(i)&63)&1 == 1 {
			k := len(out)
			out = out[: k+1 : cap(out)]
			out[k] = base + uint32(i)
		}
	}
	return out
}
