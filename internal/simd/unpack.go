package simd

import "encoding/binary"

// Unpack matches (§3.4, §4.2): the scan's third step widens the codes at a
// match vector's positions into the query's vectors. Byte-aligned codes
// make it a positional gather; the AVX2 kernels (unpack_amd64.s) gather
// eight positions per VPGATHERDD.
//
// The kernels load 4 bytes per position, which for 1- and 2-byte codes
// reads up to 3 bytes past the last code. Every code vector the engine
// builds carries 8 bytes of slack behind its codes (compress.EncodeInts
// and EncodeStrings allocate them, core's block format stores dataSlack
// behind the last section), and the AVX2 wrappers gather only when data
// holds n·width+3 bytes and pos at least 32 positions (unpackMinPositions);
// otherwise the Go loop does the work. A position ≥ n is masked out of the
// gather, and the wrapper hands the rest of the call to the Go loop, whose
// bounds check panics on it: no input makes a kernel read outside data.

// GatherWiden writes out[i] = int64(base + code(pos[i])), with wrapping
// addition, for the n width-byte (1, 2 or 4) little-endian codes in data.
// out holds at least len(pos) cells; a position ≥ n panics.
//
//dbvet:hotpath
func GatherWiden(data []byte, n, width int, base uint64, pos []uint32, out []int64) {
	gatherWidenFn(data, n, width, base, pos, out)
}

// GatherBytes writes out[i] = data[pos[i]] for the n 1-byte codes in data:
// a coded GROUP BY key's codes. out holds at least len(pos) cells; a
// position ≥ n panics.
//
//dbvet:hotpath
func GatherBytes(data []byte, n int, pos []uint32, out []byte) {
	gatherBytesFn(data, n, pos, out)
}

//dbvet:hotpath
func gatherWiden(data []byte, n, width int, base uint64, pos []uint32, out []int64) {
	out = out[:len(pos)]
	switch width {
	case 1:
		codes := data[:n]
		for i, p := range pos {
			out[i] = int64(base + uint64(codes[p]))
		}
	case 2:
		codes := data[: 2*n : 2*n]
		for i, p := range pos {
			out[i] = int64(base + uint64(binary.LittleEndian.Uint16(codes[2*uint(p):2*uint(p)+2])))
		}
	default:
		codes := data[: 4*n : 4*n]
		for i, p := range pos {
			out[i] = int64(base + uint64(binary.LittleEndian.Uint32(codes[4*uint(p):4*uint(p)+4])))
		}
	}
}

//dbvet:hotpath
func gatherBytes(data []byte, n int, pos []uint32, out []byte) {
	codes, out := data[:n], out[:len(pos)]
	for i, p := range pos {
		out[i] = codes[p]
	}
}
