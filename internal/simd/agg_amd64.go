//go:build amd64

package simd

import (
	"math"
	"unsafe"
)

// Assembler stubs (agg_amd64.s).

//go:noescape
func minMaxI64DenseAVX2asm(data *int64, n int) (mn, mx int64)

//go:noescape
func minMaxF64DenseAVX2asm(data *float64, n int) (mn, mx float64)

//go:noescape
func minMaxF64MaskedAVX2asm(data *float64, nulls *byte, n int) (mn, mx float64, any bool)

//go:noescape
func mix64BatchAVX2(src, out unsafe.Pointer, n4 int)

//go:noescape
func mix64CombineAVX2(hs, src unsafe.Pointer, n4 int)

// boolBase reinterprets a []bool as its byte base for the assembler null
// checks; gc stores bools as the bytes 0 and 1.
func boolBase(nulls []bool) *byte { return (*byte)(unsafe.Pointer(&nulls[0])) }

// minMaxInt64DenseAVX2 requires len(vals) > 0 (the MinMaxInt64 contract).
func minMaxInt64DenseAVX2(vals []int64) (int64, int64) {
	return minMaxI64DenseAVX2asm(&vals[0], len(vals))
}

func minMaxFloat64DenseAVX2(vals []float64) (float64, float64) {
	return minMaxF64DenseAVX2asm(&vals[0], len(vals))
}

func minMaxFloat64MaskedAVX2(vals []float64, nulls []bool) (float64, float64, bool) {
	if len(vals) == 0 {
		return 0, 0, false
	}
	return minMaxF64MaskedAVX2asm(&vals[0], boolBase(nulls), len(vals))
}

func hashInt64AVX2(vals []int64, out []uint64) {
	i := len(vals) &^ 3
	if i > 0 {
		mix64BatchAVX2(unsafe.Pointer(&vals[0]), unsafe.Pointer(&out[0]), i)
	}
	for ; i < len(vals); i++ {
		out[i] = Mix64(uint64(vals[i]))
	}
}

func hashFloat64AVX2(vals []float64, out []uint64) {
	i := len(vals) &^ 3
	if i > 0 {
		mix64BatchAVX2(unsafe.Pointer(&vals[0]), unsafe.Pointer(&out[0]), i)
	}
	for ; i < len(vals); i++ {
		out[i] = Mix64(math.Float64bits(vals[i]))
	}
}

func hashCombineInt64AVX2(hs []uint64, vals []int64) {
	i := len(vals) &^ 3
	if i > 0 {
		mix64CombineAVX2(unsafe.Pointer(&hs[0]), unsafe.Pointer(&vals[0]), i)
	}
	for ; i < len(vals); i++ {
		hs[i] = HashCombine(hs[i], Mix64(uint64(vals[i])))
	}
}

func hashCombineFloat64AVX2(hs []uint64, vals []float64) {
	i := len(vals) &^ 3
	if i > 0 {
		mix64CombineAVX2(unsafe.Pointer(&hs[0]), unsafe.Pointer(&vals[0]), i)
	}
	for ; i < len(vals); i++ {
		hs[i] = HashCombine(hs[i], Mix64(math.Float64bits(vals[i])))
	}
}
