//go:build amd64

package simd

import "os"

// cpuid and xgetbv0 are implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

func init() {
	cpuHasAVX2 = detectAVX2()
	avx2Active = cpuHasAVX2 && !godebugDisablesAVX2(os.Getenv("GODEBUG"))
	if avx2Active {
		installAVX2()
	}
}

// detectAVX2 reports hardware AVX2 with OS-enabled YMM state: CPUID leaf 1
// must advertise OSXSAVE+AVX, XCR0 must have the XMM and YMM save bits,
// and CPUID leaf 7 must advertise AVX2.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if ecx1&osxsaveAndAVX != osxsaveAndAVX {
		return false
	}
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// godebugDisablesAVX2 parses a GODEBUG value the way the runtime does —
// comma-separated key=value, last setting wins — honoring cpu.avx2 and
// cpu.all. (runtime/internal cpu gating is not importable, so the kernel
// dispatcher mirrors the convention.)
func godebugDisablesAVX2(godebug string) bool {
	off := false
	for len(godebug) > 0 {
		kv := godebug
		if i := indexByte(godebug, ','); i >= 0 {
			kv, godebug = godebug[:i], godebug[i+1:]
		} else {
			godebug = ""
		}
		switch kv {
		case "cpu.avx2=off", "cpu.all=off":
			off = true
		case "cpu.avx2=on", "cpu.all=on":
			off = false
		}
	}
	return off
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// installAVX2 points every kernel function variable at its assembler
// implementation: every family of kernelFamilies. Called once from init,
// before any kernel can run.
func installAVX2() {
	findBetweenW1Fn = findBetweenW1AVX2
	findNeW1Fn = findNeW1AVX2
	findBetweenW2Fn = findBetweenW2AVX2
	findNeW2Fn = findNeW2AVX2
	findBetweenW4Fn = findBetweenW4AVX2
	findNeW4Fn = findNeW4AVX2
	findBetweenW8Fn = findBetweenW8AVX2
	findNeW8Fn = findNeW8AVX2
	findBetweenI64Fn = findBetweenI64AVX2
	findNeI64Fn = findNeI64AVX2
	findBitmapFn = findBitmapAVX2
	reduceBetweenW1Fn = reduceBetweenW1AVX2
	reduceNeW1Fn = reduceNeW1AVX2
	reduceBetweenW2Fn = reduceBetweenW2AVX2
	reduceNeW2Fn = reduceNeW2AVX2
	reduceBetweenW4Fn = reduceBetweenW4AVX2
	reduceNeW4Fn = reduceNeW4AVX2
	reduceBetweenW8Fn = reduceBetweenW8AVX2
	reduceNeW8Fn = reduceNeW8AVX2
	reduceBetweenI64Fn = reduceBetweenI64AVX2
	reduceNeI64Fn = reduceNeI64AVX2
	reduceBitmapFn = reduceBitmapAVX2
	reduceKeyBitsFn = reduceKeyBitsAVX2
	minMaxI64DenseFn = minMaxInt64DenseAVX2
	minMaxF64DenseFn = minMaxFloat64DenseAVX2
	minMaxF64MaskFn = minMaxFloat64MaskedAVX2
	hashI64Fn = hashInt64AVX2
	hashF64Fn = hashFloat64AVX2
	hashCombineI64Fn = hashCombineInt64AVX2
	hashCombineF64Fn = hashCombineFloat64AVX2
	gatherWidenFn = gatherWidenAVX2
	gatherBytesFn = gatherBytesAVX2
}
