package simd

import (
	"math/rand"
	"strings"
	"testing"
)

// unpackAlt holds the AVX2 unpack wrappers where the CPU has them (set in
// fuzz_hooks_amd64_test.go), so the checks below cover both twins even on
// the GODEBUG=cpu.avx2=off leg.
var unpackAlt struct {
	widen func(data []byte, n, width int, base uint64, pos []uint32, out []int64)
	bytes func(data []byte, n int, pos []uint32, out []byte)
}

// refWiden is the per-position oracle: base plus the width-byte code,
// wrapping.
func refWiden(data []byte, width int, base uint64, pos []uint32) []int64 {
	out := make([]int64, len(pos))
	for i, p := range pos {
		var c uint64
		for b := width - 1; b >= 0; b-- {
			c = c<<8 | uint64(data[int(p)*width+b])
		}
		out[i] = int64(base + c)
	}
	return out
}

// randPositions draws k positions in [0, n): in order at the given
// density when sorted, else anywhere.
func randPositions(rng *rand.Rand, n int, density float64, sorted bool) []uint32 {
	var pos []uint32
	for i := 0; i < n; i++ {
		if !sorted {
			pos = append(pos, uint32(rng.Intn(n)))
		} else if rng.Float64() < density {
			pos = append(pos, uint32(i))
		}
	}
	return pos
}

// widenTwins lists the dispatched entry point, the Go loop and, with
// AVX2, the assembler wrapper.
func widenTwins() map[string]func([]byte, int, int, uint64, []uint32, []int64) {
	m := map[string]func([]byte, int, int, uint64, []uint32, []int64){"dispatched": GatherWiden, "go": gatherWiden}
	if unpackAlt.widen != nil {
		m["avx2"] = unpackAlt.widen
	}
	return m
}

func bytesTwins() map[string]func([]byte, int, []uint32, []byte) {
	m := map[string]func([]byte, int, []uint32, []byte){"dispatched": GatherBytes, "go": gatherBytes}
	if unpackAlt.bytes != nil {
		m["avx2"] = unpackAlt.bytes
	}
	return m
}

// TestUnpackMatchesOracle runs every twin over widths, bases near the
// int64 ends, ragged lengths and densities, on code vectors whose slack is
// the 3 bytes the kernels need.
func TestUnpackMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	bases := []uint64{0, 1 << 63, 1<<63 - 1, 1<<63 - 3, ^uint64(0), uint64(rng.Int63())}
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 255, 1000, 8192} {
		for _, density := range []float64{1, 0.985, 0.1, -1} {
			for _, width := range []int{1, 2, 4} {
				data := make([]byte, n*width+3)
				rng.Read(data)
				pos := randPositions(rng, n, density, density >= 0)
				pos = append(pos, uint32(n-1))
				base := bases[rng.Intn(len(bases))]
				want := refWiden(data, width, base, pos)
				for name, f := range widenTwins() {
					got := make([]int64, len(pos))
					f(data, n, width, base, pos, got)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s w%d n=%d base=%#x: out[%d] (pos %d) = %d, want %d", name, width, n, base, i, pos[i], got[i], want[i])
						}
					}
				}
				if width != 1 {
					continue
				}
				for name, f := range bytesTwins() {
					got := make([]byte, len(pos))
					f(data, n, pos, got)
					for i := range got {
						if got[i] != data[pos[i]] {
							t.Fatalf("%s codes n=%d: out[%d] (pos %d) = %d, want %d", name, n, i, pos[i], got[i], data[pos[i]])
						}
					}
				}
			}
		}
	}
}

// mustPanicOutOfRange runs f and fails unless it panics with Go's index
// out of range error, the bounds check's panic.
func mustPanicOutOfRange(t *testing.T, label string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		err, ok := r.(error)
		if !ok || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("%s: recovered %v, want an index out of range panic", label, r)
		}
	}()
	f()
}

// TestUnpackPanicsPastN: a position ≥ n panics in every twin, wherever it
// sits in the match vector, although the slack behind the codes is
// addressable.
func TestUnpackPanicsPastN(t *testing.T) {
	for _, n := range []int{40, 0} {
		testUnpackPanicsPastN(t, n)
	}
}

func testUnpackPanicsPastN(t *testing.T, n int) {
	data := make([]byte, 4*n+8)
	for _, bad := range []uint32{uint32(n), uint32(n + 1), 1 << 31, ^uint32(0)} {
		for _, at := range []int{0, 5, 17, 31, 34} {
			pos := make([]uint32, 35)
			for i := range pos {
				pos[i] = uint32(i % max(n, 1))
			}
			pos[at] = bad
			for _, width := range []int{1, 2, 4} {
				for name, f := range widenTwins() {
					mustPanicOutOfRange(t, name, func() { f(data, n, width, 0, pos, make([]int64, len(pos))) })
				}
			}
			for name, f := range bytesTwins() {
				mustPanicOutOfRange(t, name+" codes", func() { f(data, n, pos, make([]byte, len(pos))) })
			}
		}
	}
}

// TestUnpackWithoutSlackFallsBack: a code vector without the 3 bytes of
// slack the kernels need is still gathered correctly.
func TestUnpackWithoutSlackFallsBack(t *testing.T) {
	const n = 64
	for _, width := range []int{1, 2, 4} {
		data := make([]byte, n*width)
		for i := 0; i < n; i++ {
			WriteUint(data, i, width, uint64(i+1))
		}
		pos := randPositions(rand.New(rand.NewSource(int64(width))), n, 1, true)
		want := refWiden(data, width, 7, pos)
		for name, f := range widenTwins() {
			got := make([]int64, len(pos))
			f(data, n, width, 7, pos, got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s w%d: out[%d] = %d, want %d", name, width, i, got[i], want[i])
				}
			}
		}
	}
}
