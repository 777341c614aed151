//go:build amd64

package simd

import (
	"encoding/binary"
	"unsafe"
)

// Assembler stubs (reduce_amd64.s). Each compacts the first r8 entries of
// the match vector m in place (r8 must be a multiple of 8) and returns the
// write cursor; the Go wrappers run the portable scalar loop over the tail
// so results stay bit-identical with the pure-Go kernels.

//go:noescape
func reduceBetweenU8AVX2(data *byte, lo, hi uint64, m *uint32, r8 int) int

//go:noescape
func reduceNeU8AVX2(data *byte, c uint64, m *uint32, r8 int) int

//go:noescape
func reduceBetweenU16AVX2(data *byte, lo, hi uint64, m *uint32, r8 int) int

//go:noescape
func reduceNeU16AVX2(data *byte, c uint64, m *uint32, r8 int) int

//go:noescape
func reduceBetweenU32AVX2(data *byte, lo, hi uint64, m *uint32, r8 int) int

//go:noescape
func reduceNeU32AVX2(data *byte, c uint64, m *uint32, r8 int) int

//go:noescape
func reduceBetweenU64AVX2(data unsafe.Pointer, lo, hi uint64, m *uint32, r8 int) int

//go:noescape
func reduceBetweenI64AVX2asm(data unsafe.Pointer, lo, hi uint64, m *uint32, r8 int) int

//go:noescape
func reduceNe64AVX2(data unsafe.Pointer, c uint64, m *uint32, r8 int) int

//go:noescape
func reduceBitmapWordsAVX2(bm *uint64, want uint64, m *uint32, r8 int) int

//go:noescape
func reduceKeyBitsAVX2asm(bm *uint64, nbits uint64, base int64, vals *int64, m *uint32, r8 int) int

func reduceBetweenW1AVX2(data []byte, lo, hi uint8, m []uint32) []uint32 {
	w, r := 0, len(m)&^7
	if r > 0 {
		w = reduceBetweenU8AVX2(&data[0], uint64(lo), uint64(hi), &m[0], r)
	}
	for ; r < len(m); r++ {
		v := data[m[r]]
		m[w] = m[r]
		w += int(b2u(v >= lo && v <= hi))
	}
	return m[:w]
}

func reduceNeW1AVX2(data []byte, c uint8, m []uint32) []uint32 {
	w, r := 0, len(m)&^7
	if r > 0 {
		w = reduceNeU8AVX2(&data[0], uint64(c), &m[0], r)
	}
	for ; r < len(m); r++ {
		m[w] = m[r]
		w += int(b2u(data[m[r]] != c))
	}
	return m[:w]
}

func reduceBetweenW2AVX2(data []byte, lo, hi uint16, m []uint32) []uint32 {
	w, r := 0, len(m)&^7
	if r > 0 {
		w = reduceBetweenU16AVX2(&data[0], uint64(lo), uint64(hi), &m[0], r)
	}
	for ; r < len(m); r++ {
		v := binary.LittleEndian.Uint16(data[m[r]*2:])
		m[w] = m[r]
		w += int(b2u(v >= lo && v <= hi))
	}
	return m[:w]
}

func reduceNeW2AVX2(data []byte, c uint16, m []uint32) []uint32 {
	w, r := 0, len(m)&^7
	if r > 0 {
		w = reduceNeU16AVX2(&data[0], uint64(c), &m[0], r)
	}
	for ; r < len(m); r++ {
		m[w] = m[r]
		w += int(b2u(binary.LittleEndian.Uint16(data[m[r]*2:]) != c))
	}
	return m[:w]
}

func reduceBetweenW4AVX2(data []byte, lo, hi uint32, m []uint32) []uint32 {
	w, r := 0, len(m)&^7
	if r > 0 {
		w = reduceBetweenU32AVX2(&data[0], uint64(lo), uint64(hi), &m[0], r)
	}
	for ; r < len(m); r++ {
		v := binary.LittleEndian.Uint32(data[m[r]*4:])
		m[w] = m[r]
		w += int(b2u(v >= lo && v <= hi))
	}
	return m[:w]
}

func reduceNeW4AVX2(data []byte, c uint32, m []uint32) []uint32 {
	w, r := 0, len(m)&^7
	if r > 0 {
		w = reduceNeU32AVX2(&data[0], uint64(c), &m[0], r)
	}
	for ; r < len(m); r++ {
		m[w] = m[r]
		w += int(b2u(binary.LittleEndian.Uint32(data[m[r]*4:]) != c))
	}
	return m[:w]
}

func reduceBetweenW8AVX2(data []byte, lo, hi uint64, m []uint32) []uint32 {
	w, r := 0, len(m)&^7
	if r > 0 {
		w = reduceBetweenU64AVX2(unsafe.Pointer(&data[0]), lo, hi, &m[0], r)
	}
	for ; r < len(m); r++ {
		v := binary.LittleEndian.Uint64(data[m[r]*8:])
		m[w] = m[r]
		w += int(b2u(v >= lo && v <= hi))
	}
	return m[:w]
}

func reduceNeW8AVX2(data []byte, c uint64, m []uint32) []uint32 {
	w, r := 0, len(m)&^7
	if r > 0 {
		w = reduceNe64AVX2(unsafe.Pointer(&data[0]), c, &m[0], r)
	}
	for ; r < len(m); r++ {
		m[w] = m[r]
		w += int(b2u(binary.LittleEndian.Uint64(data[m[r]*8:]) != c))
	}
	return m[:w]
}

func reduceBetweenI64AVX2(col []int64, lo, hi int64, m []uint32) []uint32 {
	w, r := 0, len(m)&^7
	if r > 0 {
		w = reduceBetweenI64AVX2asm(unsafe.Pointer(&col[0]), uint64(lo), uint64(hi), &m[0], r)
	}
	for ; r < len(m); r++ {
		v := col[m[r]]
		m[w] = m[r]
		w += int(b2u(v >= lo && v <= hi))
	}
	return m[:w]
}

func reduceNeI64AVX2(col []int64, c int64, m []uint32) []uint32 {
	w, r := 0, len(m)&^7
	if r > 0 {
		w = reduceNe64AVX2(unsafe.Pointer(&col[0]), uint64(c), &m[0], r)
	}
	for ; r < len(m); r++ {
		m[w] = m[r]
		w += int(b2u(col[m[r]] != c))
	}
	return m[:w]
}

func reduceBitmapAVX2(bm []uint64, wantSet bool, m []uint32) []uint32 {
	want := uint64(0)
	if wantSet {
		want = 1
	}
	w, r := 0, len(m)&^7
	if r > 0 {
		w = reduceBitmapWordsAVX2(&bm[0], want, &m[0], r)
	}
	for ; r < len(m); r++ {
		p := m[r]
		m[w] = p
		w += int(b2u(bm[p>>6]>>(p&63)&1 == want))
	}
	return m[:w]
}

// reduceKeyBitsAVX2 runs the kernel over whole groups of 8 positions and
// the Go loop over the rest.
func reduceKeyBitsAVX2(bm []uint64, base int64, vals []int64, m []uint32) []uint32 {
	w, r := 0, len(m)&^7
	if r > 0 {
		w = reduceKeyBitsAVX2asm(&bm[0], uint64(len(bm))<<6, base, &vals[0], &m[0], r)
	}
	return m[:reduceKeyBitsFrom(bm, base, vals, m, r, w)]
}
