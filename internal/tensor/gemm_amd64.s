//go:build !purego

// Tile kernels. Reference semantics (and required bit-for-bit behavior) are
// the Go definitions: gemmTileGo in gemm.go for the tile, at both widths,
// and the GemmBT loops of gemm.go (f64) and gemm_f32.go (f32); see the
// comments there for the accumulation-order contracts. One call covers a
// whole row block of one reduction tile: the loops over rows, column chunks
// and the reduction index all run here, with the output tile held in vector
// registers from its first multiply-add to its last. Every kernel is AVX2,
// reached only after the CPUID check of gemm_amd64.go, and has no fused
// multiply-add: the packed multiplies and adds round each lane exactly like
// the scalar ones the Go definitions compile to.

#include "textflag.h"

// GROUP_END, for the tile body below: the end of a group of tw terms in a
// reduction loop. The a pointers take the step DX holds, and DX the one to
// the group after, if there is one.
#define GROUP_END(loop, store) \
	SUBQ tw+56(FP), CX; \
	JZ   store; \
	ADDQ DX, R8; \
	ADDQ DX, R9; \
	ADDQ DX, R10; \
	ADDQ DX, R11; \
	MOVQ tw+56(FP), BX; \
	ADDQ $8, DI; \
	CMPQ CX, BX; \
	JLE  loop; \
	MOVQ 8(DI), DX; \
	SUBQ (DI), DX; \
	SUBQ tws-120(SP), DX; \
	SHLQ $ESHIFT, DX; \
	JMP  loop

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// XCR0. Undefined-opcode fault unless CPUID.1:ECX.OSXSAVE is set.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemmTileF32AVX2(dst, init *float32, initStride int, a *float32, ars int, rowAt *int, ats, tw int, groups *int, b *float32, rows, kc, n int)
// func gemmTileF64AVX2(dst, init *float64, initStride int, a *float64, ars int, rowAt *int, ats, tw int, groups *int, b *float64, rows, kc, n int)
//
//	acc         = init[r*initStride+j]   (0 when init is nil)
//	acc        += a[r*ars+rowAt[r]+groups[t/tw]+(t%tw)*ats] * b[t*n+j]   for t = 0 … kc-1, in that order
//
// (rowAt[r] is 0 when rowAt is nil)
//	dst[r*n+j]  = acc
//
// for r < rows, j < n. Rows are taken four at a time and columns in chunks
// of two vectors, then one, then one XMM, then single columns, so a 4-row
// tile always has four independent add chains in flight whatever n is. A last tile of fewer than four rows runs the same
// code with the missing rows' pointers aliasing its last real row: they
// recompute that row's values and store them to that row's address a second
// time, which costs no branch in the loops and keeps every load and store
// inside the operands.
//
// One body, gemm_tile_amd64.h, instantiated at each element width: the
// element macros are set per TEXT, the vector macros once for the file.

// 32-byte vectors: VEX, three-operand, the broadcast on the load port.
#define VBYTES 32
#define V0 Y0
#define V1 Y1
#define V2 Y2
#define V3 Y3
#define V4 Y4
#define V5 Y5
#define V6 Y6
#define V7 Y7
#define V8 Y8
#define V9 Y9
#define V10 Y10
#define V11 Y11
#define V12 Y12
#define V13 Y13
#define MOVV VMOVUPS
#define ZERO(x) VXORPS x, x, x

#define ESIZE 4
#define ESHIFT 2
#define MOV1 VMOVSS
#define MUL1(s, x) VMULSS s, x, x
#define ADD1(s, x) VADDSS s, x, x
#define MULV(s, x) VMULPS s, x, x
#define MULC(s, a, x) VMULPS s, a, x
#define ADDV(s, x) VADDPS s, x, x
#define BCAST(m, x) VBROADCASTSS m, x
#define BCASTH(m, x) VBROADCASTSS m, x
TEXT ·gemmTileF32AVX2(SB), NOSPLIT, $120-104
#include "gemm_tile_amd64.h"
	VZEROUPPER
	RET
#undef ESIZE
#undef ESHIFT
#undef MOV1
#undef MUL1
#undef ADD1
#undef MULV
#undef MULC
#undef ADDV
#undef BCAST
#undef BCASTH

#define ESIZE 8
#define ESHIFT 3
#define MOV1 VMOVSD
#define MUL1(s, x) VMULSD s, x, x
#define ADD1(s, x) VADDSD s, x, x
#define MULV(s, x) VMULPD s, x, x
#define MULC(s, a, x) VMULPD s, a, x
#define ADDV(s, x) VADDPD s, x, x
#define BCAST(m, x) VBROADCASTSD m, x
#define BCASTH(m, x) VMOVDDUP m, x
TEXT ·gemmTileF64AVX2(SB), NOSPLIT, $120-104
#include "gemm_tile_amd64.h"
	VZEROUPPER
	RET

// func gemmBTTileF32AVX2(dst *float32, ldd int, a, b *float32, rows, cols, n int)
//
//	dst[r*ldd+c] = a[r*n : (r+1)*n] · b[c*n : (c+1)*n]   for r < rows, c < cols
//
// each dot product in the pinned order of dot4Go/dot1Go: lane l sums the
// products of elements j ≡ l (mod 4) in ascending j starting from +0, the
// lanes reduce as (s0+s2)+(s1+s3), then the elements past n&^3 are added in
// ascending order. A dot product's four lanes are the contract, so a YMM
// register holds two dots side by side, one per 128-bit half: two a rows
// are taken against four b rows at a time — Y0, Y1 the first a row against
// b rows (0|1) and (2|3), Y2, Y3 the second — four independent chains, each
// loaded b pair serving both a rows. The pair's eight dots are then reduced
// together into one XMM of four results per a row, and the tail elements
// are added the same way. A last single row runs as a pair
// whose second row aliases the first, in a and in dst; a last group of
// fewer than four columns aliases the missing b rows to its last real one
// and stores only the real columns.
//
// Registers: DI, R12 the a rows of the pair, BX dst of its first row, R13 n
// in bytes, R14 the bytes of n&^3, R15 ldd in bytes; per group R8–R11 b
// rows, SI dst pointer, CX columns left, DX byte offset along the dot, AX
// the second row's dst. Rows left and the second row's dst offset (ldd in
// bytes, or 0 when it aliases the first) live in the frame.
TEXT ·gemmBTTileF32AVX2(SB), NOSPLIT, $16-56
	MOVQ dst+0(FP), BX
	MOVQ ldd+8(FP), R15
	SHLQ $2, R15
	MOVQ a+16(FP), DI
	MOVQ rows+32(FP), AX
	MOVQ AX, rl-8(SP)
	MOVQ n+48(FP), R13
	SHLQ $2, R13
	MOVQ R13, R14
	ANDQ $-16, R14

btw_rows:
	MOVQ  rl-8(SP), AX
	TESTQ AX, AX
	JLE   btw_done
	MOVQ  DI, R12
	MOVQ  $0, off1-16(SP)
	CMPQ  AX, $2
	JLT   btw_row_set
	ADDQ  R13, R12
	MOVQ  R15, off1-16(SP)

btw_row_set:
	MOVQ b+24(FP), R8
	MOVQ cols+40(FP), CX
	MOVQ BX, SI

btw_cols:
	TESTQ CX, CX
	JLE   btw_next_rows
	CMPQ  CX, $4
	JLT   btw_clamp
	LEAQ  (R8)(R13*1), R9
	LEAQ  (R8)(R13*2), R10
	LEAQ  (R9)(R13*2), R11
	JMP   btw_dot

btw_clamp: // 1 to 3 columns left
	MOVQ R8, R9
	CMPQ CX, $2
	JLT  btw_clamp2
	ADDQ R13, R9

btw_clamp2:
	MOVQ R9, R10
	CMPQ CX, $3
	JLT  btw_clamp3
	ADDQ R13, R10

btw_clamp3:
	MOVQ R10, R11

btw_dot:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   DX, DX
	CMPQ   DX, R14
	JGE    btw_hsum

btw_lanes:
	VMOVUPS        (R8)(DX*1), X5
	VINSERTF128    $1, (R9)(DX*1), Y5, Y5
	VMOVUPS        (R10)(DX*1), X6
	VINSERTF128    $1, (R11)(DX*1), Y6, Y6
	VBROADCASTF128 (DI)(DX*1), Y4
	VMULPS         Y4, Y5, Y7
	VADDPS         Y7, Y0, Y0
	VMULPS         Y4, Y6, Y8
	VADDPS         Y8, Y1, Y1
	VBROADCASTF128 (R12)(DX*1), Y9
	VMULPS         Y9, Y5, Y10
	VADDPS         Y10, Y2, Y2
	VMULPS         Y9, Y6, Y11
	VADDPS         Y11, Y3, Y3
	ADDQ           $16, DX
	CMPQ           DX, R14
	JLT            btw_lanes

	// Both rows' eight dots reduce together, within the 128-bit halves:
	// (s0, s1) + (s2, s3) of each dot, then the even sums plus the odd
	// ones; one interleave of the halves then puts each row's four results
	// in order.
btw_hsum:
	VUNPCKLPD    Y1, Y0, Y4     // row 0: s0 s1 of dots 0, 2 | of dots 1, 3
	VUNPCKHPD    Y1, Y0, Y5     //        s2 s3
	VADDPS       Y5, Y4, Y4     //        s0+s2, s1+s3
	VUNPCKLPD    Y3, Y2, Y6     // row 1 the same
	VUNPCKHPD    Y3, Y2, Y7
	VADDPS       Y7, Y6, Y6
	VSHUFPS      $0x88, Y6, Y4, Y5 // s0+s2 of row 0 dots 0, 2, row 1 dots 0, 2 | dots 1, 3
	VSHUFPS      $0xDD, Y6, Y4, Y7 // s1+s3
	VADDPS       Y7, Y5, Y5        // (s0+s2)+(s1+s3)
	VEXTRACTF128 $1, Y5, X6
	VUNPCKLPS    X6, X5, X4     // row 0, dots 0–3
	VUNPCKHPS    X6, X5, X9     // row 1, dots 0–3
	CMPQ         DX, R13
	JGE  btw_store

btw_tail: // elements past n&^3, ascending, all four dots of both rows per step
	VMOVSS       (R8)(DX*1), X6
	VINSERTPS    $0x10, (R9)(DX*1), X6, X6
	VINSERTPS    $0x20, (R10)(DX*1), X6, X6
	VINSERTPS    $0x30, (R11)(DX*1), X6, X6
	VBROADCASTSS (DI)(DX*1), X5
	VMULPS       X5, X6, X7
	VADDPS       X7, X4, X4
	VBROADCASTSS (R12)(DX*1), X5
	VMULPS       X5, X6, X7
	VADDPS       X7, X9, X9
	ADDQ         $4, DX
	CMPQ         DX, R13
	JLT          btw_tail

btw_store:
	MOVQ off1-16(SP), AX
	ADDQ SI, AX
	CMPQ CX, $4
	JLT  btw_store_part
	VMOVUPS X4, (SI)
	VMOVUPS X9, (AX)
	ADDQ    $16, SI
	LEAQ    (R8)(R13*4), R8
	SUBQ    $4, CX
	JMP     btw_cols

btw_store_part: // the last group of the row pair
	VMOVSS X4, (SI)
	VMOVSS X9, (AX)
	CMPQ   CX, $2
	JLT    btw_next_rows
	VEXTRACTPS $1, X4, 4(SI)
	VEXTRACTPS $1, X9, 4(AX)
	CMPQ   CX, $3
	JLT    btw_next_rows
	VEXTRACTPS $2, X4, 8(SI)
	VEXTRACTPS $2, X9, 8(AX)

btw_next_rows:
	LEAQ (DI)(R13*2), DI
	LEAQ (BX)(R15*2), BX
	SUBQ $2, rl-8(SP)
	JMP  btw_rows

btw_done:
	VZEROUPPER
	RET

// func gemmBTTileF64AVX2(dst *float64, ldd int, a, b *float64, rows, cols, n int)
//
//	dst[r*ldd+c] = a[r*n : (r+1)*n] · b[c*n : (c+1)*n]   for r < rows, c < cols
//
// each dot product one sum, j-ascending from +0 — the order of gemmBT2x4.
// The lanes of a register hold *different* outputs, never parts of one: a
// block is 4 a rows × 4 b rows, each step packing one element of each b row
// against one broadcast a element per a row. rows, cols ≥ 4 and n ≥ 1; a
// last group of fewer than four rows (or columns) is taken as the last
// four, recomputing and re-storing up to three with the same values.
//
// The walk over the blocks is gemm_bt_f64_amd64.h; the block is defined
// here, four outputs per register: Y(r) accumulates a row r against b rows
// 0–3, whose elements are gathered into Y8.
#define BTD_ZERO \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3
#define BTD_ROW(ar, t, acc) \
	VBROADCASTSD (ar)(DX*1), t; \
	VMULPD       Y8, t, t; \
	VADDPD       t, acc, acc
#define BTD_STEP \
	VMOVSD      (R12)(DX*1), X8; \
	VMOVHPD     (R13)(DX*1), X8, X8; \
	VMOVSD      (R14)(DX*1), X9; \
	VMOVHPD     (R15)(DX*1), X9, X9; \
	VINSERTF128 $1, X9, Y8, Y8; \
	BTD_ROW(R8, Y10, Y0); \
	BTD_ROW(R9, Y11, Y1); \
	BTD_ROW(R10, Y12, Y2); \
	BTD_ROW(R11, Y13, Y3)
#define BTD_STORE \
	VMOVUPS Y0, (BX); \
	LEAQ    (BX)(DI*1), AX; \
	VMOVUPS Y1, (AX); \
	LEAQ    (BX)(DI*2), AX; \
	VMOVUPS Y2, (AX); \
	ADDQ    DI, AX; \
	VMOVUPS Y3, (AX)
TEXT ·gemmBTTileF64AVX2(SB), NOSPLIT, $16-56
#include "gemm_bt_f64_amd64.h"
	VZEROUPPER
	RET
