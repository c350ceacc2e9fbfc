// Body of the SSE2 GEMM tile kernel, written once for both element widths
// and included under one TEXT line per width (gemm_amd64.s), each of
//
//	func(dst, init *T, initStride int, a *T, ars, ats int, b *T, rows, kc, n int)
//
// with frame $64-80. The including file defines, and #undefs afterwards:
//
//	ESIZE, ESHIFT   bytes per element and their log2
//	MOV1            scalar load/store          MOVSS   MOVSD
//	MUL1, ADD1      scalar multiply, add       MULSS…  MULSD…
//	MULV, ADDV      packed multiply, add       MULPS…  MULPD…
//	BCAST(m, x)     element at m into every lane of x
//
// Packed moves and the zeroing XOR are bitwise, so the PS forms serve both
// widths. A vector is 16 bytes — four f32 or two f64 — and everything below
// that is not a row stride counts in bytes, so the column chunks (two
// vectors, one vector, one element) and every address computation are the
// same text at either width.
//
// Registers: R8–R11 a pointers of the tile's rows, R12 ats in bytes, R13
// n in bytes (row stride of b and dst), R14 column offset in bytes, R15
// rows left, SI b pointer, CX reduction counter; AX, BX, DX, DI scratch.
// The dst and init pointers of the tile's rows live in the frame.

	MOVQ rows+56(FP), R15
	MOVQ n+72(FP), R13
	SHLQ $ESHIFT, R13
	MOVQ ats+40(FP), R12
	SHLQ $ESHIFT, R12
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
	SHLQ  $ESHIFT, DI
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
	SHLQ  $ESHIFT, SI
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
	JGE  tile_v2
	CMPQ AX, $16
	JGE  tile_v1
	CMPQ AX, $ESIZE
	JGE  tile_e1

	// Next four rows. init advances by its own stride, so a bias (stride
	// 0) stays put; a nil init is never dereferenced.
	MOVQ ars+32(FP), AX
	SHLQ $(ESHIFT+2), AX
	ADDQ AX, R8
	MOVQ R13, AX
	SHLQ $2, AX
	ADDQ AX, d0-8(SP)
	MOVQ initStride+16(FP), AX
	SHLQ $(ESHIFT+2), AX
	ADDQ AX, i0-40(SP)
	SUBQ $4, R15
	JMP  tile_rows

tile_done:
	RET

	// 4 rows × 2 vectors: X0–X7 accumulate (row r in X(2r), X(2r+1)),
	// X8/X9 the b row, X10–X13 the broadcast a elements.
tile_v2:
	CMPQ init+8(FP), $0
	JEQ  v2_reduce
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

v2_reduce:
	TESTQ CX, CX
	JZ    v2_store

v2_loop:
	MOVUPS (SI), X8
	MOVUPS 16(SI), X9
	ADDQ   R13, SI
	BCAST((R8), X10)
	MOVAPS X10, X11
	MULV   X8, X10
	MULV   X9, X11
	ADDV   X10, X0
	ADDV   X11, X1
	BCAST((R9), X12)
	MOVAPS X12, X13
	MULV   X8, X12
	MULV   X9, X13
	ADDV   X12, X2
	ADDV   X13, X3
	BCAST((R10), X10)
	MOVAPS X10, X11
	MULV   X8, X10
	MULV   X9, X11
	ADDV   X10, X4
	ADDV   X11, X5
	BCAST((R11), X12)
	MOVAPS X12, X13
	MULV   X8, X12
	MULV   X9, X13
	ADDV   X12, X6
	ADDV   X13, X7
	ADDQ   R12, R8
	ADDQ   R12, R9
	ADDQ   R12, R10
	ADDQ   R12, R11
	DECQ   CX
	JNZ    v2_loop

v2_store:
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

	// 4 rows × 1 vector: X0–X3 accumulate, X8 the b row.
tile_v1:
	CMPQ init+8(FP), $0
	JEQ  v1_reduce
	MOVQ   i0-40(SP), AX
	MOVUPS (AX)(R14*1), X0
	MOVQ   i1-48(SP), AX
	MOVUPS (AX)(R14*1), X1
	MOVQ   i2-56(SP), AX
	MOVUPS (AX)(R14*1), X2
	MOVQ   i3-64(SP), AX
	MOVUPS (AX)(R14*1), X3

v1_reduce:
	TESTQ CX, CX
	JZ    v1_store

v1_loop:
	MOVUPS (SI), X8
	ADDQ   R13, SI
	BCAST((R8), X10)
	MULV   X8, X10
	ADDV   X10, X0
	BCAST((R9), X11)
	MULV   X8, X11
	ADDV   X11, X1
	BCAST((R10), X12)
	MULV   X8, X12
	ADDV   X12, X2
	BCAST((R11), X13)
	MULV   X8, X13
	ADDV   X13, X3
	ADDQ   R12, R8
	ADDQ   R12, R9
	ADDQ   R12, R10
	ADDQ   R12, R11
	DECQ   CX
	JNZ    v1_loop

v1_store:
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

	// 4 rows × 1 element (the columns past the last whole vector): the
	// same sequence on scalars.
tile_e1:
	CMPQ init+8(FP), $0
	JEQ  e1_reduce
	MOVQ i0-40(SP), AX
	MOV1 (AX)(R14*1), X0
	MOVQ i1-48(SP), AX
	MOV1 (AX)(R14*1), X1
	MOVQ i2-56(SP), AX
	MOV1 (AX)(R14*1), X2
	MOVQ i3-64(SP), AX
	MOV1 (AX)(R14*1), X3

e1_reduce:
	TESTQ CX, CX
	JZ    e1_store

e1_loop:
	MOV1 (SI), X8
	ADDQ R13, SI
	MOV1 (R8), X10
	MUL1 X8, X10
	ADD1 X10, X0
	MOV1 (R9), X11
	MUL1 X8, X11
	ADD1 X11, X1
	MOV1 (R10), X12
	MUL1 X8, X12
	ADD1 X12, X2
	MOV1 (R11), X13
	MUL1 X8, X13
	ADD1 X13, X3
	ADDQ R12, R8
	ADDQ R12, R9
	ADDQ R12, R10
	ADDQ R12, R11
	DECQ CX
	JNZ  e1_loop

e1_store:
	MOVQ d0-8(SP), AX
	MOV1 X0, (AX)(R14*1)
	MOVQ d1-16(SP), AX
	MOV1 X1, (AX)(R14*1)
	MOVQ d2-24(SP), AX
	MOV1 X2, (AX)(R14*1)
	MOVQ d3-32(SP), AX
	MOV1 X3, (AX)(R14*1)
	ADDQ $ESIZE, R14

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
