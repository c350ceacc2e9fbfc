//go:build !purego

// SSE2 tile kernels. Reference semantics (and required bit-for-bit behavior)
// are the pure-Go loops in gemm.go (f64) and gemm_f32.go (f32); see the
// comments there for the accumulation-order contracts. One call covers a
// whole row block of one reduction tile: the loops over rows, column chunks
// and the reduction index all run here, with the output tile held in XMM
// registers from its first multiply-add to its last. Only SSE/SSE2
// instructions — the amd64 baseline — and no fused multiply-add: the packed
// multiplies and adds round each lane exactly like the scalar ones the Go
// loops compile to.

#include "textflag.h"

// func gemmTileF32(dst, init *float32, initStride int, a *float32, ars, ats int, b *float32, rows, kc, n int)
// func gemmTileF64(dst, init *float64, initStride int, a *float64, ars, ats int, b *float64, rows, kc, n int)
//
//	acc         = init[r*initStride+j]   (0 when init is nil)
//	acc        += a[r*ars+t*ats] * b[t*n+j]   for t = 0 … kc-1, in that order
//	dst[r*n+j]  = acc
//
// for r < rows, j < n. Rows are taken four at a time and columns in chunks
// of two vectors (8 f32, 4 f64), then one, then single columns, so a 4-row
// tile always has four independent add chains in flight whatever n is. A
// last tile of fewer than four rows runs the same code with the missing
// rows' pointers aliasing its last real row: they recompute that row's
// values and store them to that row's address a second time, which costs no
// branch in the loops and keeps every load and store inside the operands.
//
// One body, gemm_tile_amd64.h, instantiated at each width.

#define ESIZE 4
#define ESHIFT 2
#define MOV1 MOVSS
#define MUL1 MULSS
#define ADD1 ADDSS
#define MULV MULPS
#define ADDV ADDPS
#define BCAST(m, x) MOVSS m, x; SHUFPS $0x00, x, x
TEXT ·gemmTileF32(SB), NOSPLIT, $64-80
#include "gemm_tile_amd64.h"
#undef ESIZE
#undef ESHIFT
#undef MOV1
#undef MUL1
#undef ADD1
#undef MULV
#undef ADDV
#undef BCAST

#define ESIZE 8
#define ESHIFT 3
#define MOV1 MOVSD
#define MUL1 MULSD
#define ADD1 ADDSD
#define MULV MULPD
#define ADDV ADDPD
#define BCAST(m, x) MOVSD m, x; UNPCKLPD x, x
TEXT ·gemmTileF64(SB), NOSPLIT, $64-80
#include "gemm_tile_amd64.h"
#undef ESIZE
#undef ESHIFT
#undef MOV1
#undef MUL1
#undef ADD1
#undef MULV
#undef ADDV
#undef BCAST

// func gemmBTTileF32(dst *float32, ldd int, a, b *float32, rows, cols, n int)
//
//	dst[r*ldd+c] = a[r*n : (r+1)*n] · b[c*n : (c+1)*n]   for r < rows, c < cols
//
// each dot product in the pinned order of dot4Go/dot1Go: lane l sums the
// products of elements j ≡ l (mod 4) in ascending j starting from +0, the
// lanes reduce as (s0+s2)+(s1+s3), then the elements past n&^3 are added in
// ascending order. Four b rows are taken against one a row at a time — four
// independent chains — and their four lane vectors are reduced together:
// two half-swaps form (s0+s2, s1+s3) for two dots per vector, an even/odd
// split forms the final sums of all four in one vector, stored with one
// MOVUPS. A last group of fewer than four columns aliases the missing b
// rows to its last real one and stores only the real columns.
//
// Registers: DI a row, BX dst row, R12 rows left, R13 n in bytes, R14 the
// bytes of n&^3, R15 ldd in bytes; per group R8–R11 b rows, SI dst pointer,
// AX columns in the group, CX columns left, DX byte offset along the dot.
TEXT ·gemmBTTileF32(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), BX
	MOVQ ldd+8(FP), R15
	SHLQ $2, R15
	MOVQ a+16(FP), DI
	MOVQ rows+32(FP), R12
	MOVQ n+48(FP), R13
	SHLQ $2, R13
	MOVQ R13, R14
	ANDQ $-16, R14

bt_rows:
	TESTQ R12, R12
	JLE   bt_done
	MOVQ  b+24(FP), R8
	MOVQ  cols+40(FP), CX
	MOVQ  BX, SI

bt_cols:
	TESTQ CX, CX
	JLE   bt_next_row
	CMPQ  CX, $4
	JLT   bt_clamp
	MOVQ  $4, AX
	LEAQ  (R8)(R13*1), R9
	LEAQ  (R8)(R13*2), R10
	LEAQ  (R9)(R13*2), R11
	JMP   bt_dot

bt_clamp: // 1 to 3 columns left
	MOVQ CX, AX
	MOVQ R8, R9
	CMPQ AX, $2
	JLT  bt_clamp2
	ADDQ R13, R9

bt_clamp2:
	MOVQ R9, R10
	CMPQ AX, $3
	JLT  bt_clamp3
	ADDQ R13, R10

bt_clamp3:
	MOVQ R10, R11

bt_dot:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  DX, DX
	CMPQ  DX, R14
	JGE   bt_hsum

bt_lanes:
	MOVUPS (DI)(DX*1), X4
	MOVUPS (R8)(DX*1), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS (R9)(DX*1), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS (R10)(DX*1), X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVUPS (R11)(DX*1), X8
	MULPS  X4, X8
	ADDPS  X8, X3
	ADDQ   $16, DX
	CMPQ   DX, R14
	JLT    bt_lanes

bt_hsum:
	MOVAPS  X0, X4
	MOVLHPS X1, X4       // X4 = dot0[s0 s1] dot1[s0 s1]
	MOVHLPS X0, X1       // X1 = dot0[s2 s3] dot1[s2 s3]
	ADDPS   X1, X4       // X4 = dot0[s0+s2 s1+s3] dot1[s0+s2 s1+s3]
	MOVAPS  X2, X5
	MOVLHPS X3, X5
	MOVHLPS X2, X3
	ADDPS   X3, X5       // X5 = the same for dot2, dot3
	MOVAPS  X4, X6
	SHUFPS  $0x88, X5, X4 // X4 = s0+s2 of dot0..dot3
	SHUFPS  $0xDD, X5, X6 // X6 = s1+s3 of dot0..dot3
	ADDPS   X6, X4       // X4 = (s0+s2)+(s1+s3) of dot0..dot3
	CMPQ    DX, R13
	JGE     bt_store

bt_tail: // elements past n&^3, ascending, all four dots per step
	MOVSS    (DI)(DX*1), X5
	SHUFPS   $0x00, X5, X5
	MOVSS    (R8)(DX*1), X6
	MOVSS    (R9)(DX*1), X7
	UNPCKLPS X7, X6
	MOVSS    (R10)(DX*1), X7
	MOVSS    (R11)(DX*1), X8
	UNPCKLPS X8, X7
	MOVLHPS  X7, X6
	MULPS    X5, X6
	ADDPS    X6, X4
	ADDQ     $4, DX
	CMPQ     DX, R13
	JLT      bt_tail

bt_store:
	CMPQ   AX, $4
	JLT    bt_store_part
	MOVUPS X4, (SI)
	ADDQ   $16, SI
	LEAQ   (R8)(R13*4), R8
	SUBQ   $4, CX
	JMP    bt_cols

bt_store_part: // the last group of the row
	MOVSS  X4, (SI)
	CMPQ   AX, $2
	JLT    bt_next_row
	PSHUFD $0x55, X4, X5
	MOVSS  X5, 4(SI)
	CMPQ   AX, $3
	JLT    bt_next_row
	PSHUFD $0xAA, X4, X5
	MOVSS  X5, 8(SI)

bt_next_row:
	ADDQ R13, DI
	ADDQ R15, BX
	DECQ R12
	JMP  bt_rows

bt_done:
	RET

// func gemmBTTileF64(dst *float64, ldd int, a, b *float64, rows, cols, n int)
//
//	dst[r*ldd+c] = a[r*n : (r+1)*n] · b[c*n : (c+1)*n]   for r < rows, c < cols
//
// each dot product one sum, j-ascending from +0 — the order of gemmBT2x4.
// The two lanes of a register hold two *different* outputs, never two halves
// of one: a block is 4 a rows × 4 b rows, X(2r) accumulating row r against b
// rows 0, 1 and X(2r+1) against b rows 2, 3, each step packing one element
// of two b rows against one broadcast a element. rows, cols ≥ 4 and n ≥ 1;
// a last group of fewer than four rows (or columns) is taken as the last
// four, recomputing and re-storing up to three with the same values.
//
// Registers: R8–R11 a rows of the group, R12–R15 b rows of the block, DX
// byte offset along the dot, SI n in bytes, DI ldd in bytes, BX dst of the
// block's first element, CX columns left; AX scratch. Rows left and the dst
// of the group's first row live in the frame.
TEXT ·gemmBTTileF64(SB), NOSPLIT, $16-56
	MOVQ n+48(FP), SI
	SHLQ $3, SI
	MOVQ ldd+8(FP), DI
	SHLQ $3, DI
	MOVQ a+16(FP), R8
	MOVQ dst+0(FP), AX
	MOVQ AX, dr-8(SP)
	MOVQ rows+32(FP), AX
	MOVQ AX, rl-16(SP)

btd_rows:
	LEAQ (R8)(SI*1), R9
	LEAQ (R8)(SI*2), R10
	LEAQ (R9)(SI*2), R11
	MOVQ b+24(FP), R12
	MOVQ dr-8(SP), BX
	MOVQ cols+40(FP), CX

btd_cols:
	LEAQ  (R12)(SI*1), R13
	LEAQ  (R12)(SI*2), R14
	LEAQ  (R13)(SI*2), R15
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	XORQ  DX, DX

btd_dot:
	MOVSD    (R12)(DX*1), X8
	MOVHPD   (R13)(DX*1), X8
	MOVSD    (R14)(DX*1), X9
	MOVHPD   (R15)(DX*1), X9
	MOVSD    (R8)(DX*1), X10
	UNPCKLPD X10, X10
	MOVAPS   X10, X11
	MULPD    X8, X10
	MULPD    X9, X11
	ADDPD    X10, X0
	ADDPD    X11, X1
	MOVSD    (R9)(DX*1), X12
	UNPCKLPD X12, X12
	MOVAPS   X12, X13
	MULPD    X8, X12
	MULPD    X9, X13
	ADDPD    X12, X2
	ADDPD    X13, X3
	MOVSD    (R10)(DX*1), X10
	UNPCKLPD X10, X10
	MOVAPS   X10, X11
	MULPD    X8, X10
	MULPD    X9, X11
	ADDPD    X10, X4
	ADDPD    X11, X5
	MOVSD    (R11)(DX*1), X12
	UNPCKLPD X12, X12
	MOVAPS   X12, X13
	MULPD    X8, X12
	MULPD    X9, X13
	ADDPD    X12, X6
	ADDPD    X13, X7
	ADDQ     $8, DX
	CMPQ     DX, SI
	JLT      btd_dot

	MOVUPS X0, (BX)
	MOVUPS X1, 16(BX)
	LEAQ   (BX)(DI*1), AX
	MOVUPS X2, (AX)
	MOVUPS X3, 16(AX)
	LEAQ   (BX)(DI*2), AX
	MOVUPS X4, (AX)
	MOVUPS X5, 16(AX)
	ADDQ   DI, AX
	MOVUPS X6, (AX)
	MOVUPS X7, 16(AX)

	// Next block of four columns; with one to three left, the last four.
	SUBQ $4, CX
	JLE  btd_next_rows
	MOVQ $4, AX
	CMPQ CX, $4
	JGE  btd_col_step
	MOVQ CX, AX
	MOVQ $4, CX

btd_col_step:
	LEAQ  (BX)(AX*8), BX
	IMULQ SI, AX
	ADDQ  AX, R12
	JMP   btd_cols

	// Next group of four rows, stepped the same way.
btd_next_rows:
	MOVQ rl-16(SP), CX
	SUBQ $4, CX
	JLE  btd_done
	MOVQ $4, AX
	CMPQ CX, $4
	JGE  btd_row_step
	MOVQ CX, AX
	MOVQ $4, CX

btd_row_step:
	MOVQ  CX, rl-16(SP)
	MOVQ  AX, CX
	IMULQ SI, CX
	ADDQ  CX, R8
	IMULQ DI, AX
	ADDQ  AX, dr-8(SP)
	JMP   btd_rows

btd_done:
	RET
