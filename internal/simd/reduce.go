package simd

import (
	"encoding/binary"
)

// Reduce shrinks an existing match vector m in place, keeping only positions
// whose element in data (width bytes, little-endian) satisfies op against
// c1/c2. It returns the shortened slice (aliasing m).
//
// This is the paper's "reduce matches" (Figure 7b): values are gathered from
// the match positions, compared, and the match vector is compacted using the
// positions table as a shuffle control mask. Performance depends on the
// selectivity of the preceding predicate through the gather's memory access
// pattern (Figure 9), not on the selectivity of this predicate.
//
//dbvet:hotpath
func Reduce(data []byte, width int, op Op, c1, c2 uint64, m []uint32) []uint32 {
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
			return reduceNeW1Fn(data, uint8(lo), m)
		case 2:
			return reduceNeW2Fn(data, uint16(lo), m)
		case 4:
			return reduceNeW4Fn(data, uint32(lo), m)
		default:
			return reduceNeW8Fn(data, lo, m)
		}
	}
	switch width {
	case 1:
		return reduceBetweenW1Fn(data, uint8(lo), uint8(hi), m)
	case 2:
		return reduceBetweenW2Fn(data, uint16(lo), uint16(hi), m)
	case 4:
		return reduceBetweenW4Fn(data, uint32(lo), uint32(hi), m)
	default:
		return reduceBetweenW8Fn(data, lo, hi, m)
	}
}

// compact8 applies the positions-table shuffle: it moves the surviving
// entries of m[r:r+8] (per mask) to m[w:], returning the new write cursor.
// All eight slots are written unconditionally; don't-care values beyond the
// match count are overwritten by later groups or cut by the final truncation.
func compact8(m []uint32, w, r int, mask uint32) int {
	e := &posTable[mask&0xFF]
	m[w+0] = m[r+int(e.pos[0])]
	m[w+1] = m[r+int(e.pos[1])]
	m[w+2] = m[r+int(e.pos[2])]
	m[w+3] = m[r+int(e.pos[3])]
	m[w+4] = m[r+int(e.pos[4])]
	m[w+5] = m[r+int(e.pos[5])]
	m[w+6] = m[r+int(e.pos[6])]
	m[w+7] = m[r+int(e.pos[7])]
	return w + int(e.n)
}

func reduceBetweenW1(data []byte, lo, hi uint8, m []uint32) []uint32 {
	r, w := 0, 0
	for ; r+8 <= len(m); r += 8 {
		var mask uint32
		for j := 0; j < 8; j++ {
			v := data[m[r+j]]
			mask |= b2u(v >= lo && v <= hi) << uint(j)
		}
		w = compact8(m, w, r, mask)
	}
	for ; r < len(m); r++ {
		v := data[m[r]]
		m[w] = m[r]
		w += int(b2u(v >= lo && v <= hi))
	}
	return m[:w]
}

func reduceNeW1(data []byte, c uint8, m []uint32) []uint32 {
	r, w := 0, 0
	for ; r+8 <= len(m); r += 8 {
		var mask uint32
		for j := 0; j < 8; j++ {
			mask |= b2u(data[m[r+j]] != c) << uint(j)
		}
		w = compact8(m, w, r, mask)
	}
	for ; r < len(m); r++ {
		m[w] = m[r]
		w += int(b2u(data[m[r]] != c))
	}
	return m[:w]
}

func reduceBetweenW2(data []byte, lo, hi uint16, m []uint32) []uint32 {
	r, w := 0, 0
	for ; r+8 <= len(m); r += 8 {
		var mask uint32
		for j := 0; j < 8; j++ {
			v := binary.LittleEndian.Uint16(data[m[r+j]*2:])
			mask |= b2u(v >= lo && v <= hi) << uint(j)
		}
		w = compact8(m, w, r, mask)
	}
	for ; r < len(m); r++ {
		v := binary.LittleEndian.Uint16(data[m[r]*2:])
		m[w] = m[r]
		w += int(b2u(v >= lo && v <= hi))
	}
	return m[:w]
}

func reduceNeW2(data []byte, c uint16, m []uint32) []uint32 {
	r, w := 0, 0
	for ; r+8 <= len(m); r += 8 {
		var mask uint32
		for j := 0; j < 8; j++ {
			mask |= b2u(binary.LittleEndian.Uint16(data[m[r+j]*2:]) != c) << uint(j)
		}
		w = compact8(m, w, r, mask)
	}
	for ; r < len(m); r++ {
		m[w] = m[r]
		w += int(b2u(binary.LittleEndian.Uint16(data[m[r]*2:]) != c))
	}
	return m[:w]
}

func reduceBetweenW4(data []byte, lo, hi uint32, m []uint32) []uint32 {
	r, w := 0, 0
	for ; r+8 <= len(m); r += 8 {
		var mask uint32
		for j := 0; j < 8; j++ {
			v := binary.LittleEndian.Uint32(data[m[r+j]*4:])
			mask |= b2u(v >= lo && v <= hi) << uint(j)
		}
		w = compact8(m, w, r, mask)
	}
	for ; r < len(m); r++ {
		v := binary.LittleEndian.Uint32(data[m[r]*4:])
		m[w] = m[r]
		w += int(b2u(v >= lo && v <= hi))
	}
	return m[:w]
}

func reduceNeW4(data []byte, c uint32, m []uint32) []uint32 {
	r, w := 0, 0
	for ; r+8 <= len(m); r += 8 {
		var mask uint32
		for j := 0; j < 8; j++ {
			mask |= b2u(binary.LittleEndian.Uint32(data[m[r+j]*4:]) != c) << uint(j)
		}
		w = compact8(m, w, r, mask)
	}
	for ; r < len(m); r++ {
		m[w] = m[r]
		w += int(b2u(binary.LittleEndian.Uint32(data[m[r]*4:]) != c))
	}
	return m[:w]
}

func reduceBetweenW8(data []byte, lo, hi uint64, m []uint32) []uint32 {
	r, w := 0, 0
	for ; r+8 <= len(m); r += 8 {
		var mask uint32
		for j := 0; j < 8; j++ {
			v := binary.LittleEndian.Uint64(data[m[r+j]*8:])
			mask |= b2u(v >= lo && v <= hi) << uint(j)
		}
		w = compact8(m, w, r, mask)
	}
	for ; r < len(m); r++ {
		v := binary.LittleEndian.Uint64(data[m[r]*8:])
		m[w] = m[r]
		w += int(b2u(v >= lo && v <= hi))
	}
	return m[:w]
}

func reduceNeW8(data []byte, c uint64, m []uint32) []uint32 {
	r, w := 0, 0
	for ; r+8 <= len(m); r += 8 {
		var mask uint32
		for j := 0; j < 8; j++ {
			mask |= b2u(binary.LittleEndian.Uint64(data[m[r+j]*8:]) != c) << uint(j)
		}
		w = compact8(m, w, r, mask)
	}
	for ; r < len(m); r++ {
		m[w] = m[r]
		w += int(b2u(binary.LittleEndian.Uint64(data[m[r]*8:]) != c))
	}
	return m[:w]
}

// ReduceInt64 is the reduce-matches kernel for uncompressed signed columns.
//
//dbvet:hotpath
func ReduceInt64(col []int64, op Op, c1, c2 int64, m []uint32) []uint32 {
	lo, hi, ne, empty, all := normalizeI64(op, c1, c2)
	if empty {
		return m[:0]
	}
	if all {
		return m
	}
	if ne {
		return reduceNeI64Fn(col, lo, m)
	}
	return reduceBetweenI64Fn(col, lo, hi, m)
}

func reduceNeI64(col []int64, c int64, m []uint32) []uint32 {
	r, w := 0, 0
	for ; r+8 <= len(m); r += 8 {
		var mask uint32
		for j := 0; j < 8; j++ {
			mask |= b2u(col[m[r+j]] != c) << uint(j)
		}
		w = compact8(m, w, r, mask)
	}
	for ; r < len(m); r++ {
		m[w] = m[r]
		w += int(b2u(col[m[r]] != c))
	}
	return m[:w]
}

func reduceBetweenI64(col []int64, lo, hi int64, m []uint32) []uint32 {
	r, w := 0, 0
	for ; r+8 <= len(m); r += 8 {
		var mask uint32
		for j := 0; j < 8; j++ {
			v := col[m[r+j]]
			mask |= b2u(v >= lo && v <= hi) << uint(j)
		}
		w = compact8(m, w, r, mask)
	}
	for ; r < len(m); r++ {
		v := col[m[r]]
		m[w] = m[r]
		w += int(b2u(v >= lo && v <= hi))
	}
	return m[:w]
}

// ReduceFloat64 is the scalar reduce fallback for doubles.
//
//dbvet:hotpath
func ReduceFloat64(col []float64, op Op, c1, c2 float64, m []uint32) []uint32 {
	w := 0
	for _, p := range m {
		v := col[p]
		var ok bool
		switch op {
		case OpEq:
			ok = v == c1
		case OpNe:
			ok = v != c1
		case OpLt:
			ok = v < c1
		case OpLe:
			ok = v <= c1
		case OpGt:
			ok = v > c1
		case OpGe:
			ok = v >= c1
		default:
			ok = v >= c1 && v <= c2
		}
		if ok {
			m[w] = p
			w++
		}
	}
	return m[:w]
}

// ReduceBitmap keeps only match positions whose bitmap bit equals wantSet.
// Used to apply validity (NULL) and delete bitmaps to a match vector.
//
//dbvet:hotpath
func ReduceBitmap(bm []uint64, wantSet bool, m []uint32) []uint32 {
	return reduceBitmapFn(bm, wantSet, m)
}

func reduceBitmapPortable(bm []uint64, wantSet bool, m []uint32) []uint32 {
	want := uint64(0)
	if wantSet {
		want = 1
	}
	r, w := 0, 0
	for ; r+8 <= len(m); r += 8 {
		var mask uint32
		for j := 0; j < 8; j++ {
			p := m[r+j]
			bit := bm[p>>6] >> (p & 63) & 1
			mask |= b2u(bit == want) << uint(j)
		}
		w = compact8(m, w, r, mask)
	}
	for ; r < len(m); r++ {
		p := m[r]
		m[w] = p
		w += int(b2u(bm[p>>6]>>(p&63)&1 == want))
	}
	return m[:w]
}

// BitmapGet reports bit i of bm.
//
//dbvet:hotpath
func BitmapGet(bm []uint64, i uint32) bool { return bm[i>>6]>>(i&63)&1 == 1 }

// BitmapSet sets bit i of bm.
//
//dbvet:hotpath
func BitmapSet(bm []uint64, i uint32) { bm[i>>6] |= 1 << (i & 63) }

// BitmapWords returns the number of uint64 words needed for n bits.
func BitmapWords(n int) int { return (n + 63) / 64 }
