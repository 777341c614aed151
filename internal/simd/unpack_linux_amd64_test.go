package simd

import (
	"math/rand"
	"os"
	"syscall"
	"testing"
)

// TestUnpackReadsNothingPastData ends each code vector at the last byte
// before a PROT_NONE page, with 3 or 8 bytes of slack behind its codes: the
// AVX2 kernels must agree with the Go loop at position n−1, in every lane
// of a group, and a position ≥ n must panic instead of faulting.
func TestUnpackReadsNothingPastData(t *testing.T) {
	requireAVX2(t)
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skip("mmap:", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skip("mprotect:", err)
	}
	rng := rand.New(rand.NewSource(606))
	const n = 100
	for _, width := range []int{1, 2, 4} {
		for _, slack := range []int{3, 8} {
			data := mem[page-n*width-slack : page : page]
			rng.Read(data)
			pos := make([]uint32, 64)
			for i := range pos {
				pos[i] = uint32(n - 1 - rng.Intn(3)*(i%2))
			}
			want := refWiden(data, width, 1<<63-1, pos)
			got := make([]int64, len(pos))
			gatherWidenAVX2(data, n, width, 1<<63-1, pos, got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("w%d slack %d: out[%d] (pos %d) = %d, want %d", width, slack, i, pos[i], got[i], want[i])
				}
			}
			if width == 1 {
				codes := make([]byte, len(pos))
				gatherBytesAVX2(data, n, pos, codes)
				for i := range codes {
					if codes[i] != data[pos[i]] {
						t.Fatalf("codes slack %d: out[%d] = %d, want %d", slack, i, codes[i], data[pos[i]])
					}
				}
			}
			for _, bad := range []uint32{n, uint32(n + slack), uint32(page), ^uint32(0)} {
				pos[rng.Intn(len(pos))] = bad
				mustPanicOutOfRange(t, "avx2", func() { gatherWidenAVX2(data, n, width, 0, pos, got) })
				if width == 1 {
					mustPanicOutOfRange(t, "avx2 codes", func() { gatherBytesAVX2(data, n, pos, make([]byte, len(pos))) })
				}
			}
		}
	}
}
