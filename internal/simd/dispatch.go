package simd

// Runtime kernel dispatch. Every kernel that has an assembler version is
// reached through a package function variable initialized to the portable
// (pure-Go SWAR/scalar) implementation; on amd64 hosts with AVX2 the arch
// init swaps in the assembler version (see dispatch_amd64.go). A kernel
// keeps an assembler version only while BenchmarkKernelPairs shows it
// beating its portable twin on the shapes the engine feeds it. The
// portable and assembler implementations are bit-identical by contract —
// including NULL-mask handling and match-vector append behavior — and the
// differential fuzz/property tests in this package enforce it.
//
// Dispatch is decided once at process start:
//
//   - the CPU must report AVX2 (CPUID leaf 7) with OS-enabled YMM state
//     (XGETBV), and
//   - GODEBUG must not disable it (`cpu.avx2=off` or `cpu.all=off`,
//     mirroring the runtime's own feature gating), which is how CI forces
//     the portable leg on AVX2 hardware.
var (
	findBetweenW1Fn = findBetweenW1
	findNeW1Fn      = findNeW1
	findBetweenW2Fn = findBetweenW2
	findNeW2Fn      = findNeW2
	findBetweenW4Fn = findBetweenW4
	findNeW4Fn      = findNeW4
	findBetweenW8Fn = findBetweenW8
	findNeW8Fn      = findNeW8

	findBetweenI64Fn = findBetweenI64
	findNeI64Fn      = findNeI64
	findBitmapFn     = findBitmapPortable

	reduceBetweenW1Fn = reduceBetweenW1
	reduceNeW1Fn      = reduceNeW1
	reduceBetweenW2Fn = reduceBetweenW2
	reduceNeW2Fn      = reduceNeW2
	reduceBetweenW4Fn = reduceBetweenW4
	reduceNeW4Fn      = reduceNeW4
	reduceBetweenW8Fn = reduceBetweenW8
	reduceNeW8Fn      = reduceNeW8

	reduceBetweenI64Fn = reduceBetweenI64
	reduceNeI64Fn      = reduceNeI64
	reduceBitmapFn     = reduceBitmapPortable
	reduceKeyBitsFn    = reduceKeyBits

	minMaxI64DenseFn = minMaxInt64Dense
	minMaxF64DenseFn = minMaxFloat64Dense
	minMaxF64MaskFn  = minMaxFloat64Masked

	hashI64Fn        = hashInt64Portable
	hashF64Fn        = hashFloat64Portable
	hashCombineI64Fn = hashCombineInt64Portable
	hashCombineF64Fn = hashCombineFloat64Portable

	gatherWidenFn = gatherWiden
	gatherBytesFn = gatherBytes
)

// cpuHasAVX2 reports the hardware capability; avx2Active reports the
// dispatch decision (hardware present AND not disabled via GODEBUG).
// Differential tests key off cpuHasAVX2 so the assembler kernels are
// still exercised on the GODEBUG=cpu.avx2=off CI leg.
var (
	cpuHasAVX2 bool
	avx2Active bool
)

// kernelFamilies names, in order, the kernel families DispatchInfo
// reports. Every one has an assembler version, and installAVX2 installs
// them all or none.
var kernelFamilies = []string{
	"agg.minmax_f64", "agg.minmax_i64",
	"find.bitmap", "find.int64", "find.w1", "find.w2", "find.w4", "find.w8",
	"hash.mix64",
	"reduce.bitmap", "reduce.int64", "reduce.keybits", "reduce.w1", "reduce.w2", "reduce.w4", "reduce.w8",
	"unpack.codes", "unpack.w1", "unpack.w2", "unpack.w4",
}

// CPUFeatureLevel names the instruction-set level the dispatcher selected:
// "avx2" when the assembler kernels are active, "baseline" otherwise.
func CPUFeatureLevel() string {
	if avx2Active {
		return "avx2"
	}
	return "baseline"
}

// KernelDispatch records the implementation chosen for one kernel family.
type KernelDispatch struct {
	Kernel string `json:"kernel"`
	Impl   string `json:"impl"` // "avx2" or "portable"
}

// DispatchInfo returns the per-kernel dispatch decisions, sorted by kernel
// name. Benchmark and metrics JSON embed it so numbers from different
// hosts (or different GODEBUG legs) are interpretable.
func DispatchInfo() []KernelDispatch {
	impl := "portable"
	if avx2Active {
		impl = "avx2"
	}
	out := make([]KernelDispatch, len(kernelFamilies))
	for i, k := range kernelFamilies {
		out[i] = KernelDispatch{Kernel: k, Impl: impl}
	}
	return out
}
