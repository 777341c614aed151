// AVX2 aggregation and hash kernels (agg_amd64.go wrappers).
//
// Bit-identity contract: the float64 min/max folds keep the exact element
// order of the portable loops (they keep the first of equal values), so
// their wins come from MINSD/MAXSD — branching only on a NaN — and dropped
// bounds checks. The int64 min/max fold IS associative, so it runs four
// lanes wide with VPCMPGTQ + VPBLENDVB. The Mix64 batch hash runs four
// lanes of splitmix64 with the 64x64 multiply decomposed into three
// VPMULUDQ products.
//
// X registers alias the low halves of the same-numbered Y registers; the
// vector kernels keep constants in Y12-Y15 and scratch in Y8-Y11 so scalar
// X0-X3 code in the same file never collides. A kernel that issues VEX
// instructions moves scalars in and out of vector registers with VMOVQ,
// never the legacy-SSE MOVQ (TestKernelsAreVEXClean).

#include "textflag.h"

// func minMaxI64DenseAVX2asm(data *int64, n int) (mn, mx int64)
// n >= 1. Four-wide fold: Y0 = running min lanes, Y1 = running max lanes.
TEXT ·minMaxI64DenseAVX2asm(SB), NOSPLIT, $0-32
	MOVQ data+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ (SI), AX
	MOVQ AX, BX
	MOVQ $1, R10
	CMPQ CX, $8
	JLT  mitail
	VMOVDQU (SI), Y0
	VMOVDQU (SI), Y1
	MOVQ CX, DX
	ANDQ $-4, DX
	MOVQ $4, R10
mi4:
	VMOVDQU  (SI)(R10*8), Y2
	VPCMPGTQ Y2, Y0, Y3
	VPBLENDVB Y3, Y2, Y0, Y0
	VPCMPGTQ Y1, Y2, Y3
	VPBLENDVB Y3, Y2, Y1, Y1
	ADDQ     $4, R10
	CMPQ     R10, DX
	JLT      mi4
	VEXTRACTI128 $1, Y0, X2
	VPCMPGTQ  X2, X0, X3
	VPBLENDVB X3, X2, X0, X0
	VPSHUFD   $0xEE, X0, X2
	VPCMPGTQ  X2, X0, X3
	VPBLENDVB X3, X2, X0, X0
	VMOVQ     X0, AX
	VEXTRACTI128 $1, Y1, X2
	VPCMPGTQ  X1, X2, X3
	VPBLENDVB X3, X2, X1, X1
	VPSHUFD   $0xEE, X1, X2
	VPCMPGTQ  X1, X2, X3
	VPBLENDVB X3, X2, X1, X1
	VMOVQ     X1, BX
	VZEROUPPER
mitail:
	CMPQ R10, CX
	JGE  midone
	MOVQ (SI)(R10*8), R12
	CMPQ R12, AX
	CMOVQLT R12, AX
	CMPQ R12, BX
	CMOVQGT R12, BX
	INCQ R10
	JMP  mitail
midone:
	MOVQ AX, mn+16(FP)
	MOVQ BX, mx+24(FP)
	RET

// The float min/max step, for a value v in X2 against the running MIN in
// X0 and MAX in X1, by MinMaxFloat64's rule (NaN below every number; the
// first of equal values kept). While neither v nor MAX is NaN, MINSD and
// MAXSD with v as SRC1 compute "v < mn ? v : mn" and "v > mx ? v : mx" —
// and a NaN MIN stays, since MINSD then returns SRC2. A NaN v becomes the
// MIN unless the MIN already is NaN. MAX is NaN only while every value so
// far was, and then the first number replaces it. Clobbers X3.
#define MINMAX_F64_STEP(nan, vnan, next) \
	UCOMISD X1, X2 \
	JP      nan    \
	MOVAPD  X2, X3 \
	MINSD   X0, X2 \
	MOVAPD  X2, X0 \
	MAXSD   X1, X3 \
	MOVAPD  X3, X1 \
	JMP     next   \
nan:               \
	UCOMISD X2, X2 \
	JP      vnan   \
	MOVAPD  X2, X1 \
	JMP     next   \
vnan:              \
	UCOMISD X0, X0 \
	JP      next   \
	MOVAPD  X2, X0

// func minMaxF64DenseAVX2asm(data *float64, n int) (mn, mx float64)
// n >= 1. Strict element order (MINMAX_F64_STEP).
TEXT ·minMaxF64DenseAVX2asm(SB), NOSPLIT, $0-32
	MOVQ  data+0(FP), SI
	MOVQ  n+8(FP), CX
	MOVSD (SI), X0
	MOVAPD X0, X1
	MOVQ  $1, R10
mf:
	CMPQ   R10, CX
	JGE    mfdone
	MOVSD  (SI)(R10*8), X2
	MINMAX_F64_STEP(mfnan, mfvnan, mfnext)
mfnext:
	INCQ   R10
	JMP    mf
mfdone:
	MOVSD X0, mn+16(FP)
	MOVSD X1, mx+24(FP)
	RET

// func minMaxF64MaskedAVX2asm(data *float64, nulls *byte, n int) (mn, mx float64, any bool)
TEXT ·minMaxF64MaskedAVX2asm(SB), NOSPLIT, $0-41
	MOVQ  data+0(FP), SI
	MOVQ  nulls+8(FP), DX
	MOVQ  n+16(FP), CX
	PXOR  X0, X0
	PXOR  X1, X1
	XORQ  R13, R13
	XORQ  R10, R10
mg:
	CMPQ  R10, CX
	JGE   mgdone
	CMPB  (DX)(R10*1), $0
	JNE   mgskip
	MOVSD (SI)(R10*8), X2
	TESTQ R13, R13
	JNZ   mgfold
	MOVAPD X2, X0
	MOVAPD X2, X1
	MOVQ  $1, R13
	JMP   mgskip
mgfold:
	MINMAX_F64_STEP(mgnan, mgvnan, mgskip)
mgskip:
	INCQ R10
	JMP  mg
mgdone:
	MOVSD X0, mn+24(FP)
	MOVSD X1, mx+32(FP)
	MOVB  R13, any+40(FP)
	RET

// Four-lane splitmix64. MUL64 computes Y0 *= C with the 64x64 low product
// decomposed as lo*lo + ((hi*lo + lo*hi) << 32); VPMULUDQ reads only the
// low 32 bits of each lane, so Yc holds the full constant and Ychi the
// constant shifted right 32. Scratch: Y9-Y11.
#define XSHIFT(k) \
	VPSRLQ $k, Y0, Y9 \
	VPXOR  Y9, Y0, Y0

#define MUL64(Yc, Ychi) \
	VPMULUDQ Yc, Y0, Y9    \
	VPSRLQ   $32, Y0, Y10  \
	VPMULUDQ Yc, Y10, Y10  \
	VPMULUDQ Ychi, Y0, Y11 \
	VPADDQ   Y10, Y11, Y10 \
	VPSLLQ   $32, Y10, Y10 \
	VPADDQ   Y10, Y9, Y0

#define MIX64 \
	XSHIFT(30)       \
	MUL64(Y12, Y13)  \
	XSHIFT(27)       \
	MUL64(Y14, Y15)  \
	XSHIFT(31)

#define MIX64_CONSTS \
	MOVQ $0xbf58476d1ce4e5b9, AX \
	VMOVQ AX, X12                \
	VPBROADCASTQ X12, Y12        \
	SHRQ $32, AX                 \
	VMOVQ AX, X13                \
	VPBROADCASTQ X13, Y13        \
	MOVQ $0x94d049bb133111eb, AX \
	VMOVQ AX, X14                \
	VPBROADCASTQ X14, Y14        \
	SHRQ $32, AX                 \
	VMOVQ AX, X15                \
	VPBROADCASTQ X15, Y15

// func mix64BatchAVX2(src, out unsafe.Pointer, n4 int)
// out[i] = Mix64(src[i]) for i < n4; n4 is a positive multiple of 4.
TEXT ·mix64BatchAVX2(SB), NOSPLIT, $0-24
	MOVQ src+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ n4+16(FP), DX
	MIX64_CONSTS
	XORQ R10, R10
hb4:
	VMOVDQU (SI)(R10*8), Y0
	MIX64
	VMOVDQU Y0, (DI)(R10*8)
	ADDQ    $4, R10
	CMPQ    R10, DX
	JLT     hb4
	VZEROUPPER
	RET

// func mix64CombineAVX2(hs, src unsafe.Pointer, n4 int)
// hs[i] = HashCombine(hs[i], Mix64(src[i])) = Mix64(rotl(hs[i], 23) ^
// Mix64(src[i])) for i < n4; n4 a positive multiple of 4.
TEXT ·mix64CombineAVX2(SB), NOSPLIT, $0-24
	MOVQ hs+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n4+16(FP), DX
	MIX64_CONSTS
	XORQ R10, R10
hc4:
	VMOVDQU (SI)(R10*8), Y0
	MIX64
	VMOVDQU (DI)(R10*8), Y8
	VPSRLQ  $41, Y8, Y9
	VPSLLQ  $23, Y8, Y8
	VPOR    Y9, Y8, Y8
	VPXOR   Y8, Y0, Y0
	MIX64
	VMOVDQU Y0, (DI)(R10*8)
	ADDQ    $4, R10
	CMPQ    R10, DX
	JLT     hc4
	VZEROUPPER
	RET
