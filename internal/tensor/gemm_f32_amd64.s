//go:build !purego

// SSE2 float32 tile kernels. Reference semantics (and required bit-for-bit
// behavior) are the pure-Go loops in gemm_f32.go; see the comment there for
// the accumulation-order contract. One call covers a whole row block of one
// reduction tile: the loops over rows, column chunks and the reduction index
// all run here, with the output tile held in XMM registers from its first
// multiply-add to its last. Only SSE/SSE2 instructions — the amd64 baseline
// — and no fused multiply-add: MULPS/ADDPS round each lane exactly like the
// scalar MULSS/ADDSS the Go loops compile to.

#include "textflag.h"

// func gemmTileF32(dst, init *float32, initStride int, a *float32, ars, ats int, b *float32, rows, kc, n int)
//
//	acc         = init[r*initStride+j]   (0 when init is nil)
//	acc        += a[r*ars+t*ats] * b[t*n+j]   for t = 0 … kc-1, in that order
//	dst[r*n+j]  = acc
//
// for r < rows, j < n. Rows are taken four at a time and columns in chunks
// of 8, then 4, then single columns, so a 4-row tile always has four
// independent add chains in flight whatever n is. A last tile of fewer than
// four rows runs the same code with the missing rows' pointers aliasing its
// last real row: they recompute that row's values and store them to that
// row's address a second time, which costs no branch in the loops and keeps
// every load and store inside the operands.
//
// Registers: R8–R11 a pointers of the tile's rows, R12 ats in bytes, R13
// n in bytes (row stride of b and dst), R14 column offset in bytes, R15
// rows left, SI b pointer, CX reduction counter; AX, BX, DX, DI scratch.
// The dst and init pointers of the tile's rows live in the frame.
TEXT ·gemmTileF32(SB), NOSPLIT, $64-80
	MOVQ rows+56(FP), R15
	MOVQ n+72(FP), R13
	SHLQ $2, R13
	MOVQ ats+40(FP), R12
	SHLQ $2, R12
	MOVQ a+24(FP), R8
	MOVQ dst+0(FP), DI
	MOVQ DI, d0-8(SP)
	MOVQ init+8(FP), DI
	MOVQ DI, i0-40(SP)

tile_rows:
	TESTQ R15, R15
	JLE   tile_done

	// AX, BX, DX = min(1, rows-1), min(2, rows-1), min(3, rows-1): the row
	// of the tile that rows 1, 2, 3 stand for.
	LEAQ    -1(R15), DI
	MOVQ    $1, AX
	CMPQ    DI, AX
	CMOVQLT DI, AX
	MOVQ    $2, BX
	CMPQ    DI, BX
	CMOVQLT DI, BX
	MOVQ    $3, DX
	CMPQ    DI, DX
	CMOVQLT DI, DX

	MOVQ  ars+32(FP), DI
	SHLQ  $2, DI
	MOVQ  DI, R9
	IMULQ AX, R9
	ADDQ  R8, R9
	MOVQ  DI, R10
	IMULQ BX, R10
	ADDQ  R8, R10
	MOVQ  DI, R11
	IMULQ DX, R11
	ADDQ  R8, R11

	MOVQ  d0-8(SP), DI
	MOVQ  R13, CX
	IMULQ AX, CX
	ADDQ  DI, CX
	MOVQ  CX, d1-16(SP)
	MOVQ  R13, CX
	IMULQ BX, CX
	ADDQ  DI, CX
	MOVQ  CX, d2-24(SP)
	MOVQ  R13, CX
	IMULQ DX, CX
	ADDQ  DI, CX
	MOVQ  CX, d3-32(SP)

	MOVQ  initStride+16(FP), SI
	SHLQ  $2, SI
	MOVQ  i0-40(SP), DI
	IMULQ SI, AX
	ADDQ  DI, AX
	MOVQ  AX, i1-48(SP)
	IMULQ SI, BX
	ADDQ  DI, BX
	MOVQ  BX, i2-56(SP)
	IMULQ SI, DX
	ADDQ  DI, DX
	MOVQ  DX, i3-64(SP)

	XORQ R14, R14

	// A tile starts from +0 unless init says otherwise.
tile_cols:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ b+48(FP), SI
	ADDQ R14, SI
	MOVQ kc+64(FP), CX
	MOVQ R13, AX
	SUBQ R14, AX
	CMPQ AX, $32
	JGE  tile_w8
	CMPQ AX, $16
	JGE  tile_w4
	CMPQ AX, $4
	JGE  tile_w1

	// Next four rows. init advances by its own stride, so a bias (stride
	// 0) stays put; a nil init is never dereferenced.
	MOVQ ars+32(FP), AX
	SHLQ $4, AX
	ADDQ AX, R8
	MOVQ R13, AX
	SHLQ $2, AX
	ADDQ AX, d0-8(SP)
	MOVQ initStride+16(FP), AX
	SHLQ $4, AX
	ADDQ AX, i0-40(SP)
	SUBQ $4, R15
	JMP  tile_rows

tile_done:
	RET

	// 4 rows × 8 columns: X0–X7 accumulate (row r in X(2r), X(2r+1)),
	// X8/X9 the b row, X10–X13 the broadcast a elements.
tile_w8:
	CMPQ init+8(FP), $0
	JEQ  w8_reduce
	MOVQ   i0-40(SP), AX
	MOVUPS (AX)(R14*1), X0
	MOVUPS 16(AX)(R14*1), X1
	MOVQ   i1-48(SP), AX
	MOVUPS (AX)(R14*1), X2
	MOVUPS 16(AX)(R14*1), X3
	MOVQ   i2-56(SP), AX
	MOVUPS (AX)(R14*1), X4
	MOVUPS 16(AX)(R14*1), X5
	MOVQ   i3-64(SP), AX
	MOVUPS (AX)(R14*1), X6
	MOVUPS 16(AX)(R14*1), X7

w8_reduce:
	TESTQ CX, CX
	JZ    w8_store

w8_loop:
	MOVUPS (SI), X8
	MOVUPS 16(SI), X9
	ADDQ   R13, SI
	MOVSS  (R8), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X0
	ADDPS  X11, X1
	MOVSS  (R9), X12
	SHUFPS $0x00, X12, X12
	MOVAPS X12, X13
	MULPS  X8, X12
	MULPS  X9, X13
	ADDPS  X12, X2
	ADDPS  X13, X3
	MOVSS  (R10), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X4
	ADDPS  X11, X5
	MOVSS  (R11), X12
	SHUFPS $0x00, X12, X12
	MOVAPS X12, X13
	MULPS  X8, X12
	MULPS  X9, X13
	ADDPS  X12, X6
	ADDPS  X13, X7
	ADDQ   R12, R8
	ADDQ   R12, R9
	ADDQ   R12, R10
	ADDQ   R12, R11
	DECQ   CX
	JNZ    w8_loop

w8_store:
	MOVQ   d0-8(SP), AX
	MOVUPS X0, (AX)(R14*1)
	MOVUPS X1, 16(AX)(R14*1)
	MOVQ   d1-16(SP), AX
	MOVUPS X2, (AX)(R14*1)
	MOVUPS X3, 16(AX)(R14*1)
	MOVQ   d2-24(SP), AX
	MOVUPS X4, (AX)(R14*1)
	MOVUPS X5, 16(AX)(R14*1)
	MOVQ   d3-32(SP), AX
	MOVUPS X6, (AX)(R14*1)
	MOVUPS X7, 16(AX)(R14*1)
	ADDQ   $32, R14
	JMP    tile_rewind

	// 4 rows × 4 columns: X0–X3 accumulate, X8 the b row.
tile_w4:
	CMPQ init+8(FP), $0
	JEQ  w4_reduce
	MOVQ   i0-40(SP), AX
	MOVUPS (AX)(R14*1), X0
	MOVQ   i1-48(SP), AX
	MOVUPS (AX)(R14*1), X1
	MOVQ   i2-56(SP), AX
	MOVUPS (AX)(R14*1), X2
	MOVQ   i3-64(SP), AX
	MOVUPS (AX)(R14*1), X3

w4_reduce:
	TESTQ CX, CX
	JZ    w4_store

w4_loop:
	MOVUPS (SI), X8
	ADDQ   R13, SI
	MOVSS  (R8), X10
	SHUFPS $0x00, X10, X10
	MULPS  X8, X10
	ADDPS  X10, X0
	MOVSS  (R9), X11
	SHUFPS $0x00, X11, X11
	MULPS  X8, X11
	ADDPS  X11, X1
	MOVSS  (R10), X12
	SHUFPS $0x00, X12, X12
	MULPS  X8, X12
	ADDPS  X12, X2
	MOVSS  (R11), X13
	SHUFPS $0x00, X13, X13
	MULPS  X8, X13
	ADDPS  X13, X3
	ADDQ   R12, R8
	ADDQ   R12, R9
	ADDQ   R12, R10
	ADDQ   R12, R11
	DECQ   CX
	JNZ    w4_loop

w4_store:
	MOVQ   d0-8(SP), AX
	MOVUPS X0, (AX)(R14*1)
	MOVQ   d1-16(SP), AX
	MOVUPS X1, (AX)(R14*1)
	MOVQ   d2-24(SP), AX
	MOVUPS X2, (AX)(R14*1)
	MOVQ   d3-32(SP), AX
	MOVUPS X3, (AX)(R14*1)
	ADDQ   $16, R14
	JMP    tile_rewind

	// 4 rows × 1 column (n mod 4): the same sequence on scalars.
tile_w1:
	CMPQ init+8(FP), $0
	JEQ  w1_reduce
	MOVQ  i0-40(SP), AX
	MOVSS (AX)(R14*1), X0
	MOVQ  i1-48(SP), AX
	MOVSS (AX)(R14*1), X1
	MOVQ  i2-56(SP), AX
	MOVSS (AX)(R14*1), X2
	MOVQ  i3-64(SP), AX
	MOVSS (AX)(R14*1), X3

w1_reduce:
	TESTQ CX, CX
	JZ    w1_store

w1_loop:
	MOVSS (SI), X8
	ADDQ  R13, SI
	MOVSS (R8), X10
	MULSS X8, X10
	ADDSS X10, X0
	MOVSS (R9), X11
	MULSS X8, X11
	ADDSS X11, X1
	MOVSS (R10), X12
	MULSS X8, X12
	ADDSS X12, X2
	MOVSS (R11), X13
	MULSS X8, X13
	ADDSS X13, X3
	ADDQ  R12, R8
	ADDQ  R12, R9
	ADDQ  R12, R10
	ADDQ  R12, R11
	DECQ  CX
	JNZ   w1_loop

w1_store:
	MOVQ  d0-8(SP), AX
	MOVSS X0, (AX)(R14*1)
	MOVQ  d1-16(SP), AX
	MOVSS X1, (AX)(R14*1)
	MOVQ  d2-24(SP), AX
	MOVSS X2, (AX)(R14*1)
	MOVQ  d3-32(SP), AX
	MOVSS X3, (AX)(R14*1)
	ADDQ  $4, R14

	// Put the a pointers back at the start of the reduction tile for the
	// next column chunk.
tile_rewind:
	MOVQ  kc+64(FP), AX
	IMULQ R12, AX
	SUBQ  AX, R8
	SUBQ  AX, R9
	SUBQ  AX, R10
	SUBQ  AX, R11
	JMP   tile_cols

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
