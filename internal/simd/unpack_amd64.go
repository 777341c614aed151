//go:build amd64

package simd

// Assembler stubs (unpack_amd64.s). Each widens the codes at pos[0:r8]
// (r8 a multiple of 8) and returns how many positions it did: r8, or the
// start of the first group holding a position above last = n−1.

//go:noescape
func gatherWidenAsm(data *byte, shift, mask, last, base uint64, pos *uint32, out *int64, r8 int) int

//go:noescape
func gatherBytesAsm(data *byte, last uint64, pos *uint32, out *byte, r8 int) int

// unpackMinPositions is the shortest match vector the kernels take: in
// BenchmarkKernelPairs the Go loops read faster at 3 positions (every
// width) and at 26 (width 1), and the 1-byte gathers no faster at 32.
const unpackMinPositions = 32

func gatherWidenAVX2(data []byte, n, width int, base uint64, pos []uint32, out []int64) {
	out = out[:len(pos)]
	i := 0
	// A lane's 4-byte load at the last code must stay inside data, and
	// every byte offset must fit VPGATHERDD's signed 32-bit index.
	if r8 := len(pos) &^ 7; len(pos) >= unpackMinPositions && n > 0 && len(data) >= n*width+3 && n*width < 1<<31 {
		mask := uint64(1)<<(8*width) - 1
		i = gatherWidenAsm(&data[0], uint64(width/2), mask, uint64(n-1), base, &pos[0], &out[0], r8)
	}
	gatherWiden(data, n, width, base, pos[i:], out[i:])
}

func gatherBytesAVX2(data []byte, n int, pos []uint32, out []byte) {
	out = out[:len(pos)]
	i := 0
	if r8 := len(pos) &^ 7; len(pos) >= unpackMinPositions && n > 0 && len(data) >= n+3 && n < 1<<31 {
		i = gatherBytesAsm(&data[0], uint64(n-1), &pos[0], &out[0], r8)
	}
	gatherBytes(data, n, pos[i:], out[i:])
}
