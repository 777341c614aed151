// AVX2 "reduce matches" kernels (paper §4.2, Figure 7b): gather values at
// the match positions, compare, and compact the match vector in place
// with a VPERMD shuffle driven by the positions table. Gathers are exact-
// width scalar loads (a vector gather of narrow elements would over-read
// past the end of the data vector); the win over the portable code is the
// branch-free SETcc mask build, the single-shuffle compaction, and the
// absence of bounds checks.
//
// Shared register plan:
//   SI  data base      BX  match-vector base   DX  group-element count
//   R10 read cursor    R8  write cursor        R9  ·posTable base
//   AX  lo / c         CX  hi                  R15 mask accumulator
//   R11 position       R12 value               R13/R14 flag scratch
//   Y0  m[r..r+7]      Y1  shuffle control     Y2  compacted lanes

#include "textflag.h"

// COMPACT8 compacts m[r:r+8] by the 8-bit mask in R15 to m[w:], writing
// all eight lanes unconditionally (w+8 <= r+8 <= len(m) keeps it in
// bounds) and advancing w by the match count.
#define COMPACT8 \
	VMOVDQU (BX)(R10*4), Y0    \
	MOVL    R15, R11           \
	LEAQ    (R11)(R11*8), R12  \
	SHLQ    $2, R12            \
	VMOVDQU (R9)(R12*1), Y1    \
	VPERMD  Y0, Y1, Y2         \
	VMOVDQU Y2, (BX)(R8*4)     \
	MOVL    32(R9)(R12*1), R11 \
	ADDQ    R11, R8            \
	ADDQ    $8, R10

// Per-position mask bits. The two SETcc flags are ANDed and masked to
// bit 0 (upper byte-register bits are stale), then shifted into place.

#define RB_W1(j) \
	MOVL    (j*4)(BX)(R10*4), R11 \
	MOVBLZX (SI)(R11*1), R12      \
	CMPL    R12, AX               \
	SETCC   R13                   \
	CMPL    R12, CX               \
	SETLS   R14                   \
	ANDL    R14, R13              \
	ANDL    $1, R13               \
	SHLL    $j, R13               \
	ORL     R13, R15

#define RN_W1(j) \
	MOVL    (j*4)(BX)(R10*4), R11 \
	MOVBLZX (SI)(R11*1), R12      \
	CMPL    R12, AX               \
	SETNE   R13                   \
	ANDL    $1, R13               \
	SHLL    $j, R13               \
	ORL     R13, R15

#define RB_W2(j) \
	MOVL    (j*4)(BX)(R10*4), R11 \
	MOVWLZX (SI)(R11*2), R12      \
	CMPL    R12, AX               \
	SETCC   R13                   \
	CMPL    R12, CX               \
	SETLS   R14                   \
	ANDL    R14, R13              \
	ANDL    $1, R13               \
	SHLL    $j, R13               \
	ORL     R13, R15

#define RN_W2(j) \
	MOVL    (j*4)(BX)(R10*4), R11 \
	MOVWLZX (SI)(R11*2), R12      \
	CMPL    R12, AX               \
	SETNE   R13                   \
	ANDL    $1, R13               \
	SHLL    $j, R13               \
	ORL     R13, R15

#define RB_W4(j) \
	MOVL    (j*4)(BX)(R10*4), R11 \
	MOVL    (SI)(R11*4), R12      \
	CMPL    R12, AX               \
	SETCC   R13                   \
	CMPL    R12, CX               \
	SETLS   R14                   \
	ANDL    R14, R13              \
	ANDL    $1, R13               \
	SHLL    $j, R13               \
	ORL     R13, R15

#define RN_W4(j) \
	MOVL    (j*4)(BX)(R10*4), R11 \
	MOVL    (SI)(R11*4), R12      \
	CMPL    R12, AX               \
	SETNE   R13                   \
	ANDL    $1, R13               \
	SHLL    $j, R13               \
	ORL     R13, R15

#define RB_U64(j) \
	MOVL    (j*4)(BX)(R10*4), R11 \
	MOVQ    (SI)(R11*8), R12      \
	CMPQ    R12, AX               \
	SETCC   R13                   \
	CMPQ    R12, CX               \
	SETLS   R14                   \
	ANDL    R14, R13              \
	ANDL    $1, R13               \
	SHLL    $j, R13               \
	ORL     R13, R15

#define RB_I64(j) \
	MOVL    (j*4)(BX)(R10*4), R11 \
	MOVQ    (SI)(R11*8), R12      \
	CMPQ    R12, AX               \
	SETGE   R13                   \
	CMPQ    R12, CX               \
	SETLE   R14                   \
	ANDL    R14, R13              \
	ANDL    $1, R13               \
	SHLL    $j, R13               \
	ORL     R13, R15

#define RN_64(j) \
	MOVL    (j*4)(BX)(R10*4), R11 \
	MOVQ    (SI)(R11*8), R12      \
	CMPQ    R12, AX               \
	SETNE   R13                   \
	ANDL    $1, R13               \
	SHLL    $j, R13               \
	ORL     R13, R15

// RBM(j): bit j of the mask is (bm[pos>>6]>>(pos&63)&1 == want); BTQ with
// a register offset performs the full bit-string addressing.
#define RBM(j) \
	MOVL (j*4)(BX)(R10*4), R11 \
	BTQ  R11, (SI)             \
	SETCS R13                  \
	XORL CX, R13               \
	XORL $1, R13               \
	ANDL $1, R13               \
	SHLL $j, R13               \
	ORL  R13, R15

#define REDUCE_LOOP(MASKJ) \
	XORL R15, R15 \
	MASKJ(0)      \
	MASKJ(1)      \
	MASKJ(2)      \
	MASKJ(3)      \
	MASKJ(4)      \
	MASKJ(5)      \
	MASKJ(6)      \
	MASKJ(7)      \
	COMPACT8

// func reduceBetweenU8AVX2(data *byte, lo, hi uint64, m *uint32, r8 int) int
// r8 is a positive multiple of 8; processes m[0:r8], returns w.
TEXT ·reduceBetweenU8AVX2(SB), NOSPLIT, $0-48
	MOVQ data+0(FP), SI
	MOVQ lo+8(FP), AX
	MOVQ hi+16(FP), CX
	MOVQ m+24(FP), BX
	MOVQ r8+32(FP), DX
	LEAQ ·posTable(SB), R9
	XORQ R10, R10
	XORQ R8, R8
rb1:
	REDUCE_LOOP(RB_W1)
	CMPQ R10, DX
	JLT  rb1
	VZEROUPPER
	MOVQ R8, ret+40(FP)
	RET

// func reduceNeU8AVX2(data *byte, c uint64, m *uint32, r8 int) int
TEXT ·reduceNeU8AVX2(SB), NOSPLIT, $0-40
	MOVQ data+0(FP), SI
	MOVQ c+8(FP), AX
	MOVQ m+16(FP), BX
	MOVQ r8+24(FP), DX
	LEAQ ·posTable(SB), R9
	XORQ R10, R10
	XORQ R8, R8
rn1:
	REDUCE_LOOP(RN_W1)
	CMPQ R10, DX
	JLT  rn1
	VZEROUPPER
	MOVQ R8, ret+32(FP)
	RET

// func reduceBetweenU16AVX2(data *byte, lo, hi uint64, m *uint32, r8 int) int
TEXT ·reduceBetweenU16AVX2(SB), NOSPLIT, $0-48
	MOVQ data+0(FP), SI
	MOVQ lo+8(FP), AX
	MOVQ hi+16(FP), CX
	MOVQ m+24(FP), BX
	MOVQ r8+32(FP), DX
	LEAQ ·posTable(SB), R9
	XORQ R10, R10
	XORQ R8, R8
rb2:
	REDUCE_LOOP(RB_W2)
	CMPQ R10, DX
	JLT  rb2
	VZEROUPPER
	MOVQ R8, ret+40(FP)
	RET

// func reduceNeU16AVX2(data *byte, c uint64, m *uint32, r8 int) int
TEXT ·reduceNeU16AVX2(SB), NOSPLIT, $0-40
	MOVQ data+0(FP), SI
	MOVQ c+8(FP), AX
	MOVQ m+16(FP), BX
	MOVQ r8+24(FP), DX
	LEAQ ·posTable(SB), R9
	XORQ R10, R10
	XORQ R8, R8
rn2:
	REDUCE_LOOP(RN_W2)
	CMPQ R10, DX
	JLT  rn2
	VZEROUPPER
	MOVQ R8, ret+32(FP)
	RET

// func reduceBetweenU32AVX2(data *byte, lo, hi uint64, m *uint32, r8 int) int
TEXT ·reduceBetweenU32AVX2(SB), NOSPLIT, $0-48
	MOVQ data+0(FP), SI
	MOVQ lo+8(FP), AX
	MOVQ hi+16(FP), CX
	MOVQ m+24(FP), BX
	MOVQ r8+32(FP), DX
	LEAQ ·posTable(SB), R9
	XORQ R10, R10
	XORQ R8, R8
rb4:
	REDUCE_LOOP(RB_W4)
	CMPQ R10, DX
	JLT  rb4
	VZEROUPPER
	MOVQ R8, ret+40(FP)
	RET

// func reduceNeU32AVX2(data *byte, c uint64, m *uint32, r8 int) int
TEXT ·reduceNeU32AVX2(SB), NOSPLIT, $0-40
	MOVQ data+0(FP), SI
	MOVQ c+8(FP), AX
	MOVQ m+16(FP), BX
	MOVQ r8+24(FP), DX
	LEAQ ·posTable(SB), R9
	XORQ R10, R10
	XORQ R8, R8
rn4:
	REDUCE_LOOP(RN_W4)
	CMPQ R10, DX
	JLT  rn4
	VZEROUPPER
	MOVQ R8, ret+32(FP)
	RET

// func reduceBetweenU64AVX2(data unsafe.Pointer, lo, hi uint64, m *uint32, r8 int) int
TEXT ·reduceBetweenU64AVX2(SB), NOSPLIT, $0-48
	MOVQ data+0(FP), SI
	MOVQ lo+8(FP), AX
	MOVQ hi+16(FP), CX
	MOVQ m+24(FP), BX
	MOVQ r8+32(FP), DX
	LEAQ ·posTable(SB), R9
	XORQ R10, R10
	XORQ R8, R8
rb8u:
	REDUCE_LOOP(RB_U64)
	CMPQ R10, DX
	JLT  rb8u
	VZEROUPPER
	MOVQ R8, ret+40(FP)
	RET

// func reduceBetweenI64AVX2asm(data unsafe.Pointer, lo, hi uint64, m *uint32, r8 int) int
TEXT ·reduceBetweenI64AVX2asm(SB), NOSPLIT, $0-48
	MOVQ data+0(FP), SI
	MOVQ lo+8(FP), AX
	MOVQ hi+16(FP), CX
	MOVQ m+24(FP), BX
	MOVQ r8+32(FP), DX
	LEAQ ·posTable(SB), R9
	XORQ R10, R10
	XORQ R8, R8
rb8i:
	REDUCE_LOOP(RB_I64)
	CMPQ R10, DX
	JLT  rb8i
	VZEROUPPER
	MOVQ R8, ret+40(FP)
	RET

// func reduceNe64AVX2(data unsafe.Pointer, c uint64, m *uint32, r8 int) int
// Equality is sign-agnostic: serves both W8 byte vectors and int64 columns.
TEXT ·reduceNe64AVX2(SB), NOSPLIT, $0-40
	MOVQ data+0(FP), SI
	MOVQ c+8(FP), AX
	MOVQ m+16(FP), BX
	MOVQ r8+24(FP), DX
	LEAQ ·posTable(SB), R9
	XORQ R10, R10
	XORQ R8, R8
rn8:
	REDUCE_LOOP(RN_64)
	CMPQ R10, DX
	JLT  rn8
	VZEROUPPER
	MOVQ R8, ret+32(FP)
	RET

// func reduceBitmapWordsAVX2(bm *uint64, want uint64, m *uint32, r8 int) int
TEXT ·reduceBitmapWordsAVX2(SB), NOSPLIT, $0-40
	MOVQ bm+0(FP), SI
	MOVQ want+8(FP), CX
	MOVQ m+16(FP), BX
	MOVQ r8+24(FP), DX
	LEAQ ·posTable(SB), R9
	XORQ R10, R10
	XORQ R8, R8
rbm:
	REDUCE_LOOP(RBM)
	CMPQ R10, DX
	JLT  rbm
	VZEROUPPER
	MOVQ R8, ret+32(FP)
	RET

// RKB4(off, dst) sets bits 0–3 of dst for the 4 keys at vals[r+off/8:]:
// j = key − base, in range iff j < nbits unsigned (a signed compare of
// both sides with the sign bit flipped). The in-range lanes gather their
// bitmap word — the others keep the zeroed destination — and a shift by
// 63 − j&63 moves the key's bit to the sign bit VMOVMSKPD reads.
#define RKB4(off, dst) \
	VMOVDQU    off(SI)(R10*8), Y7  \
	VPSUBQ     Y3, Y7, Y7          \
	VPXOR      Y5, Y7, Y8          \
	VPCMPGTQ   Y8, Y4, Y8          \
	VPSRLQ     $6, Y7, Y9          \
	VPXOR      Y10, Y10, Y10       \
	VPGATHERQQ Y8, (DI)(Y9*8), Y10 \
	VPANDN     Y6, Y7, Y7          \
	VPSLLVQ    Y7, Y10, Y10        \
	VMOVMSKPD  Y10, dst

// func reduceKeyBitsAVX2asm(bm *uint64, nbits uint64, base int64, vals *int64, m *uint32, r8 int) int
// Keeps m[i] iff bit vals[i]−base of bm[0:nbits/64] is set; r8 is a
// positive multiple of 8. DI bitmap base, SI key base; Y3 base splat,
// Y4 nbits with the sign bit flipped, Y5 the sign bit, Y6 63.
TEXT ·reduceKeyBitsAVX2asm(SB), NOSPLIT, $0-56
	MOVQ         bm+0(FP), DI
	VPBROADCASTQ nbits+8(FP), Y4
	VPBROADCASTQ base+16(FP), Y3
	MOVQ         vals+24(FP), SI
	MOVQ         m+32(FP), BX
	MOVQ         r8+40(FP), DX
	MOVQ         $0x8000000000000000, AX
	VMOVQ        AX, X5
	VPBROADCASTQ X5, Y5
	VPXOR        Y5, Y4, Y4
	MOVQ         $63, AX
	VMOVQ        AX, X6
	VPBROADCASTQ X6, Y6
	LEAQ         ·posTable(SB), R9
	XORQ         R10, R10
	XORQ         R8, R8
rkb:
	RKB4(0, R15)
	RKB4(32, R13)
	SHLL $4, R13
	ORL  R13, R15
	COMPACT8
	CMPQ R10, DX
	JLT  rkb
	VZEROUPPER
	MOVQ R8, ret+48(FP)
	RET
