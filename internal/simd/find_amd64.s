// AVX2 "find initial matches" kernels (paper §4.2, Figure 7a): vector
// compare → movemask → positions-table emit. Each kernel processes whole
// vector groups only; the Go wrappers (find_amd64.go) run the portable
// SWAR code on the tail, so asm and portable outputs are bit-identical.
//
// Shared register plan:
//   SI  data base           DI  out base        R8  write cursor (elems)
//   DX  element count       R9  ·posTable base  R10 element index
//   AX  movemask scratch    R11/R12 emit scratch
//   Y0  lo splat            Y1  hi splat
//   Y3  position splat (base+i, advanced 8 per emit)
//   Y4  const 8 splat       Y5..Y9 temps

#include "textflag.h"

// EMIT8 writes the positions of the low 8 mask bits of AX at out[w],
// unconditionally storing 8 lanes (the caller guarantees 8 slots of
// slack) and advancing the cursor by the popcount via the table's count
// field; then shifts the mask and bumps the position splat.
#define EMIT8 \
	MOVL    AX, R11                  \
	ANDL    $0xFF, R11               \
	LEAQ    (R11)(R11*8), R12        \
	SHLQ    $2, R12                  \
	VMOVDQU (R9)(R12*1), Y5          \
	VPADDD  Y3, Y5, Y5               \
	VMOVDQU Y5, (DI)(R8*4)           \
	MOVL    32(R9)(R12*1), R11       \
	ADDQ    R11, R8                  \
	VPADDD  Y4, Y3, Y3               \
	SHRQ    $8, AX

// FIND_SETUP loads the shared operands: out/w/posTable/position splats.
// Expects base+off(FP) layout with base at the given offset. The scratch
// register is X15: X registers alias the low lanes of the same-numbered
// Y register, and Y15 is unused by every kernel, so the setup cannot
// corrupt an operand splat prepared before it runs.
#define FIND_SETUP(baseoff, outoff, woff) \
	MOVL    baseoff(FP), CX   \
	VMOVD   CX, X15           \
	VPBROADCASTD X15, Y3      \
	MOVL    $8, CX            \
	VMOVD   CX, X15           \
	VPBROADCASTD X15, Y4      \
	MOVQ    outoff(FP), DI    \
	MOVQ    woff(FP), R8      \
	LEAQ    ·posTable(SB), R9 \
	XORQ    R10, R10

// func findBetweenU8AVX2(data *byte, n int, lo, hi uint64, base uint32, out *uint32, w int) int
// n is a positive multiple of 32.
TEXT ·findBetweenU8AVX2(SB), NOSPLIT, $0-64
	MOVQ data+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ lo+16(FP), AX
	VMOVQ AX, X0
	VPBROADCASTB X0, Y0
	MOVQ hi+24(FP), AX
	VMOVQ AX, X1
	VPBROADCASTB X1, Y1
	FIND_SETUP(base+32, out+40, w+48)
w1b:
	VMOVDQU (SI)(R10*1), Y6
	VPMAXUB Y0, Y6, Y7       // max(x, lo)
	VPCMPEQB Y6, Y7, Y7      // == x  ⇔  x >= lo
	VPMINUB Y1, Y6, Y5       // min(x, hi)
	VPCMPEQB Y6, Y5, Y5      // == x  ⇔  x <= hi
	VPAND Y7, Y5, Y5
	VPMOVMSKB Y5, AX
	EMIT8
	EMIT8
	EMIT8
	EMIT8
	ADDQ $32, R10
	CMPQ R10, DX
	JLT  w1b
	VZEROUPPER
	MOVQ R8, ret+56(FP)
	RET

// func findNeU8AVX2(data *byte, n int, c uint64, base uint32, out *uint32, w int) int
// n is a positive multiple of 32.
TEXT ·findNeU8AVX2(SB), NOSPLIT, $0-56
	MOVQ data+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ c+16(FP), AX
	VMOVQ AX, X0
	VPBROADCASTB X0, Y0
	FIND_SETUP(base+24, out+32, w+40)
w1n:
	VMOVDQU (SI)(R10*1), Y6
	VPCMPEQB Y0, Y6, Y5
	VPMOVMSKB Y5, AX
	NOTL AX                  // != c
	EMIT8
	EMIT8
	EMIT8
	EMIT8
	ADDQ $32, R10
	CMPQ R10, DX
	JLT  w1n
	VZEROUPPER
	MOVQ R8, ret+48(FP)
	RET

// PACK16 turns the 16 word-compare results in Y5 into a 16-bit mask in
// AX. VPACKSSWB against itself duplicates each half within its 128-bit
// lane, so the movemask carries lanes 0-7 at bits 0-7 and lanes 8-15 at
// bits 16-23.
#define PACK16 \
	VPACKSSWB Y5, Y5, Y5 \
	VPMOVMSKB Y5, AX     \
	MOVL      AX, R11    \
	SHRL      $8, R11    \
	ANDL      $0xFF00, R11 \
	ANDL      $0xFF, AX  \
	ORL       R11, AX

// func findBetweenU16AVX2(data *byte, n int, lo, hi uint64, base uint32, out *uint32, w int) int
// n is a positive multiple of 16.
TEXT ·findBetweenU16AVX2(SB), NOSPLIT, $0-64
	MOVQ data+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ lo+16(FP), AX
	VMOVQ AX, X0
	VPBROADCASTW X0, Y0
	MOVQ hi+24(FP), AX
	VMOVQ AX, X1
	VPBROADCASTW X1, Y1
	FIND_SETUP(base+32, out+40, w+48)
w2b:
	VMOVDQU (SI)(R10*2), Y6
	VPMAXUW Y0, Y6, Y7
	VPCMPEQW Y6, Y7, Y7
	VPMINUW Y1, Y6, Y5
	VPCMPEQW Y6, Y5, Y5
	VPAND Y7, Y5, Y5
	PACK16
	EMIT8
	EMIT8
	ADDQ $16, R10
	CMPQ R10, DX
	JLT  w2b
	VZEROUPPER
	MOVQ R8, ret+56(FP)
	RET

// func findNeU16AVX2(data *byte, n int, c uint64, base uint32, out *uint32, w int) int
// n is a positive multiple of 16.
TEXT ·findNeU16AVX2(SB), NOSPLIT, $0-56
	MOVQ data+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ c+16(FP), AX
	VMOVQ AX, X0
	VPBROADCASTW X0, Y0
	FIND_SETUP(base+24, out+32, w+40)
w2n:
	VMOVDQU (SI)(R10*2), Y6
	VPCMPEQW Y0, Y6, Y5
	PACK16
	XORL $0xFFFF, AX
	EMIT8
	EMIT8
	ADDQ $16, R10
	CMPQ R10, DX
	JLT  w2n
	VZEROUPPER
	MOVQ R8, ret+48(FP)
	RET

// func findBetweenU32AVX2(data *byte, n int, lo, hi uint64, base uint32, out *uint32, w int) int
// n is a positive multiple of 8.
TEXT ·findBetweenU32AVX2(SB), NOSPLIT, $0-64
	MOVQ data+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ lo+16(FP), AX
	VMOVQ AX, X0
	VPBROADCASTD X0, Y0
	MOVQ hi+24(FP), AX
	VMOVQ AX, X1
	VPBROADCASTD X1, Y1
	FIND_SETUP(base+32, out+40, w+48)
w4b:
	VMOVDQU (SI)(R10*4), Y6
	VPMAXUD Y0, Y6, Y7
	VPCMPEQD Y6, Y7, Y7
	VPMINUD Y1, Y6, Y5
	VPCMPEQD Y6, Y5, Y5
	VPAND Y7, Y5, Y5
	VMOVMSKPS Y5, AX
	EMIT8
	ADDQ $8, R10
	CMPQ R10, DX
	JLT  w4b
	VZEROUPPER
	MOVQ R8, ret+56(FP)
	RET

// func findNeU32AVX2(data *byte, n int, c uint64, base uint32, out *uint32, w int) int
// n is a positive multiple of 8.
TEXT ·findNeU32AVX2(SB), NOSPLIT, $0-56
	MOVQ data+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ c+16(FP), AX
	VMOVQ AX, X0
	VPBROADCASTD X0, Y0
	FIND_SETUP(base+24, out+32, w+40)
w4n:
	VMOVDQU (SI)(R10*4), Y6
	VPCMPEQD Y0, Y6, Y5
	VMOVMSKPS Y5, AX
	XORL $0xFF, AX
	EMIT8
	ADDQ $8, R10
	CMPQ R10, DX
	JLT  w4n
	VZEROUPPER
	MOVQ R8, ret+48(FP)
	RET

// func findBetween64AVX2(data unsafe.Pointer, n int, lo, hi, flip uint64, base uint32, out *uint32, w int) int
// n is a positive multiple of 8. flip is XORed into every element and
// into lo/hi before a SIGNED 64-bit compare: 1<<63 turns it into the
// unsigned compare of the W8 byte kernel, 0 keeps int64 semantics, so
// one kernel serves both.
TEXT ·findBetween64AVX2(SB), NOSPLIT, $0-72
	MOVQ data+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ flip+32(FP), BX
	VMOVQ BX, X2
	VPBROADCASTQ X2, Y2
	MOVQ lo+16(FP), AX
	XORQ BX, AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0
	MOVQ hi+24(FP), AX
	XORQ BX, AX
	VMOVQ AX, X1
	VPBROADCASTQ X1, Y1
	FIND_SETUP(base+40, out+48, w+56)
w8b:
	VMOVDQU (SI)(R10*8), Y6
	VMOVDQU 32(SI)(R10*8), Y7
	VPXOR Y2, Y6, Y6
	VPXOR Y2, Y7, Y7
	VPCMPGTQ Y6, Y0, Y5      // lo' > x
	VPCMPGTQ Y1, Y6, Y8      // x > hi'
	VPOR  Y5, Y8, Y5
	VMOVMSKPD Y5, AX
	VPCMPGTQ Y7, Y0, Y8
	VPCMPGTQ Y1, Y7, Y9
	VPOR  Y8, Y9, Y8
	VMOVMSKPD Y8, R11
	SHLL $4, R11
	ORL  R11, AX
	XORL $0xFF, AX           // good = ^bad
	EMIT8
	ADDQ $8, R10
	CMPQ R10, DX
	JLT  w8b
	VZEROUPPER
	MOVQ R8, ret+64(FP)
	RET

// func findNe64AVX2(data unsafe.Pointer, n int, c uint64, base uint32, out *uint32, w int) int
// n is a positive multiple of 8. Equality is sign-agnostic, so this
// serves both the W8 byte kernel and int64 columns.
TEXT ·findNe64AVX2(SB), NOSPLIT, $0-56
	MOVQ data+0(FP), SI
	MOVQ n+8(FP), DX
	MOVQ c+16(FP), AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0
	FIND_SETUP(base+24, out+32, w+40)
w8n:
	VMOVDQU (SI)(R10*8), Y6
	VMOVDQU 32(SI)(R10*8), Y7
	VPCMPEQQ Y0, Y6, Y5
	VMOVMSKPD Y5, AX
	VPCMPEQQ Y0, Y7, Y8
	VMOVMSKPD Y8, R11
	SHLL $4, R11
	ORL  R11, AX
	XORL $0xFF, AX
	EMIT8
	ADDQ $8, R10
	CMPQ R10, DX
	JLT  w8n
	VZEROUPPER
	MOVQ R8, ret+48(FP)
	RET

// func findBitmapWordsAVX2(bm *uint64, nwords int, inv uint64, base uint32, out *uint32, w int) int
// Emits positions of set bits of bm[0:nwords] after XOR with inv
// (all-ones selects clear bits), 8 emits per 64-bit word.
TEXT ·findBitmapWordsAVX2(SB), NOSPLIT, $0-56
	MOVQ bm+0(FP), SI
	MOVQ nwords+8(FP), DX
	MOVQ inv+16(FP), BX
	FIND_SETUP(base+24, out+32, w+40)
bmloop:
	MOVQ (SI)(R10*8), AX
	XORQ BX, AX
	EMIT8
	EMIT8
	EMIT8
	EMIT8
	EMIT8
	EMIT8
	EMIT8
	EMIT8
	ADDQ $1, R10
	CMPQ R10, DX
	JLT  bmloop
	VZEROUPPER
	MOVQ R8, ret+48(FP)
	RET
