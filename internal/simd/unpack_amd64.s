// AVX2 "unpack matches" kernels (paper §3.4, §4.2): VPGATHERDD loads the
// 4 bytes at each of eight match positions' codes; lanes are then cut to
// the code width and widened. A lane's load reaches 3 bytes past its code,
// which the code vector's slack covers (unpack.go).
//
// Register plan:
//   SI  data base    BX  positions base   DI  out base
//   DX  r8           R10 position index   AX  movemask scratch
//   Y0  positions    Y1  in-range lanes   Y2  gathered lanes
//   Y15 last (n−1) splat

#include "textflag.h"

// POSITIONS8 loads pos[i:i+8] into Y0 and sets Y1 to the lanes whose
// position is ≤ last (unsigned) and AX to their sign mask: 0xFF when all
// eight are in range. Y1 is the gather's mask, so a lane out of range is
// never loaded.
#define POSITIONS8 \
	VMOVDQU   (BX)(R10*4), Y0 \
	VPMINUD   Y15, Y0, Y1     \
	VPCMPEQD  Y0, Y1, Y1      \
	VMOVMSKPS Y1, AX          \
	VPXOR     Y2, Y2, Y2

// func gatherWidenAsm(data *byte, shift, mask, last, base uint64, pos *uint32, out *int64, r8 int) int
// Y14 holds the shift (log2 width), Y13 the code mask, Y12 the base.
TEXT ·gatherWidenAsm(SB), NOSPLIT, $0-72
	MOVQ         data+0(FP), SI
	VMOVQ        shift+8(FP), X14
	VMOVQ        mask+16(FP), X13
	VPBROADCASTD X13, Y13
	VMOVQ        last+24(FP), X15
	VPBROADCASTD X15, Y15
	VPBROADCASTQ base+32(FP), Y12
	MOVQ         pos+40(FP), BX
	MOVQ         out+48(FP), DI
	MOVQ         r8+56(FP), DX
	XORQ         R10, R10

widen:
	POSITIONS8
	CMPL         AX, $0xFF
	JNE          wdone
	VPSLLD       X14, Y0, Y0
	VPGATHERDD   Y1, (SI)(Y0*1), Y2
	VPAND        Y13, Y2, Y2
	VPMOVZXDQ    X2, Y3
	VEXTRACTI128 $1, Y2, X2
	VPMOVZXDQ    X2, Y2
	VPADDQ       Y12, Y3, Y3
	VPADDQ       Y12, Y2, Y2
	VMOVDQU      Y3, (DI)(R10*8)
	VMOVDQU      Y2, 32(DI)(R10*8)
	ADDQ         $8, R10
	CMPQ         R10, DX
	JLT          widen

wdone:
	VZEROUPPER
	MOVQ R10, ret+64(FP)
	RET

// func gatherBytesAsm(data *byte, last uint64, pos *uint32, out *byte, r8 int) int
// VPSHUFB by Y13 moves each 128-bit lane's four code bytes to its low
// dword; VPUNPCKLDQ joins the two lanes' dwords into one 8-byte store.
TEXT ·gatherBytesAsm(SB), NOSPLIT, $0-48
	MOVQ         data+0(FP), SI
	VMOVQ        last+8(FP), X15
	VPBROADCASTD X15, Y15
	MOVQ         pos+16(FP), BX
	MOVQ         out+24(FP), DI
	MOVQ         r8+32(FP), DX
	MOVL         $0x0C080400, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	XORQ         R10, R10

bytes:
	POSITIONS8
	CMPL         AX, $0xFF
	JNE          bdone
	VPGATHERDD   Y1, (SI)(Y0*1), Y2
	VPSHUFB      Y13, Y2, Y2
	VEXTRACTI128 $1, Y2, X3
	VPUNPCKLDQ   X3, X2, X2
	VMOVQ        X2, (DI)(R10*1)
	ADDQ         $8, R10
	CMPQ         R10, DX
	JLT          bytes

bdone:
	VZEROUPPER
	MOVQ R10, ret+40(FP)
	RET
