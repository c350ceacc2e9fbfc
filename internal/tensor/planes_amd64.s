//go:build !purego

// Byte-plane split and join. Reference semantics (and required byte-for-byte
// behavior) are splitPlanesGo and joinPlanesGo in planes.go. AVX2, run only
// where gemm_amd64.go's CPUID check allows. One 32-byte group of elements an
// iteration — four 8-byte or eight 4-byte elements, whose low bytes are 24 —
// and every load and store inside the group's own bytes.
//
// Registers: AX element index, CX n, DI and SI the low bytes' and the
// elements' (or the reverse) pointers, R8 and R9 the planes'.

#include "textflag.h"

#define JOIN8LOW ·planeMasks+0(SB)
#define JOIN8TOP ·planeMasks+32(SB)
#define JOIN4LOW ·planeMasks+64(SB)
#define JOIN4TOP ·planeMasks+96(SB)
#define SPLIT8 ·planeMasks+128(SB)
#define SPLIT4 ·planeMasks+160(SB)

// func split8AVX2(low, top0, top1, src *byte, n int)
//
// A lane's two elements shuffle to their 12 low bytes, then [b6 b6' b7 b7'];
// lane 0's 16 bytes are stored at the group's low byte 0 and lane 1's low 12
// at byte 12, over lane 0's last four. Unpacking the two lanes' high words
// pairs the four elements' byte 6s in dword 2 and their byte 7s in dword 3.
TEXT ·split8AVX2(SB), NOSPLIT, $0-40
	MOVQ    low+0(FP), DI
	MOVQ    top0+8(FP), R8
	MOVQ    top1+16(FP), R9
	MOVQ    src+24(FP), SI
	MOVQ    n+32(FP), CX
	VMOVDQU SPLIT8, Y15
	XORQ    AX, AX
	JMP     split8_cond

split8_loop:
	VMOVDQU      (SI)(AX*8), Y0
	VPSHUFB      Y15, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VMOVDQU      X0, (DI)
	VMOVQ        X1, 12(DI)
	VPEXTRD      $2, X1, 20(DI)
	VPUNPCKHWD   X1, X0, X2
	VPEXTRD      $2, X2, (R8)(AX*1)
	VPEXTRD      $3, X2, (R9)(AX*1)
	ADDQ         $24, DI
	ADDQ         $4, AX

split8_cond:
	CMPQ AX, CX
	JLT  split8_loop
	VZEROUPPER
	RET

// func split4AVX2(low, top, src *byte, n int)
//
// split8AVX2 with a lane's four elements: their 12 low bytes, then their
// four top bytes, which the two lanes' high dwords unpack to one qword.
TEXT ·split4AVX2(SB), NOSPLIT, $0-32
	MOVQ    low+0(FP), DI
	MOVQ    top+8(FP), R8
	MOVQ    src+16(FP), SI
	MOVQ    n+24(FP), CX
	VMOVDQU SPLIT4, Y15
	XORQ    AX, AX
	JMP     split4_cond

split4_loop:
	VMOVDQU      (SI)(AX*4), Y0
	VPSHUFB      Y15, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VMOVDQU      X0, (DI)
	VMOVQ        X1, 12(DI)
	VPEXTRD      $2, X1, 20(DI)
	VPUNPCKHDQ   X1, X0, X2
	VPEXTRQ      $1, X2, (R8)(AX*1)
	ADDQ         $24, DI
	ADDQ         $8, AX

split4_cond:
	CMPQ AX, CX
	JLT  split4_loop
	VZEROUPPER
	RET

// func join8AVX2(dst, low, top0, top1 *byte, n int)
//
// Lane 0 loads the group's low bytes 0–15 and lane 1 its bytes 8–23; one
// shuffle spreads them to bytes 0–5 of each element's word. The two planes'
// four bytes broadcast and blend to alternating dwords, and a second shuffle
// moves them to bytes 6 and 7.
TEXT ·join8AVX2(SB), NOSPLIT, $0-40
	MOVQ    dst+0(FP), DI
	MOVQ    low+8(FP), SI
	MOVQ    top0+16(FP), R8
	MOVQ    top1+24(FP), R9
	MOVQ    n+32(FP), CX
	VMOVDQU JOIN8LOW, Y14
	VMOVDQU JOIN8TOP, Y15
	XORQ    AX, AX
	JMP     join8_cond

join8_loop:
	VMOVDQU      (SI), X0
	VINSERTI128  $1, 8(SI), Y0, Y0
	VPSHUFB      Y14, Y0, Y0
	VPBROADCASTD (R8)(AX*1), Y1
	VPBROADCASTD (R9)(AX*1), Y2
	VPBLENDD     $0xaa, Y2, Y1, Y1
	VPSHUFB      Y15, Y1, Y1
	VPOR         Y1, Y0, Y0
	VMOVDQU      Y0, (DI)(AX*8)
	ADDQ         $24, SI
	ADDQ         $4, AX

join8_cond:
	CMPQ AX, CX
	JLT  join8_loop
	VZEROUPPER
	RET

// func join4AVX2(dst, low, top *byte, n int)
//
// join8AVX2 with three low bytes and one plane byte a word: the plane's
// eight bytes broadcast to every qword.
TEXT ·join4AVX2(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    low+8(FP), SI
	MOVQ    top+16(FP), R8
	MOVQ    n+24(FP), CX
	VMOVDQU JOIN4LOW, Y14
	VMOVDQU JOIN4TOP, Y15
	XORQ    AX, AX
	JMP     join4_cond

join4_loop:
	VMOVDQU      (SI), X0
	VINSERTI128  $1, 8(SI), Y0, Y0
	VPSHUFB      Y14, Y0, Y0
	VPBROADCASTQ (R8)(AX*1), Y1
	VPSHUFB      Y15, Y1, Y1
	VPOR         Y1, Y0, Y0
	VMOVDQU      Y0, (DI)(AX*4)
	ADDQ         $24, SI
	ADDQ         $8, AX

join4_cond:
	CMPQ AX, CX
	JLT  join4_loop
	VZEROUPPER
	RET
