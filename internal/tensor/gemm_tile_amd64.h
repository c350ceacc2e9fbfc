// Body of the GEMM tile kernel, written once for both element widths and
// included under one TEXT line per width (gemm_amd64.s), each of
//
//	func(dst, init *T, initStride int, a *T, ars int, rowAt *int, ats, tw int, groups *int, b *T, rows, kc, n int)
//
// with frame $120-104, kc a multiple of tw ≥ 1. The text falls out of its last line when the tile is
// done: the including TEXT supplies the return, VZEROUPPER first. The
// including file defines:
//
//	ESIZE, ESHIFT     bytes per element and their log2
//	MOV1              scalar load/store            VMOVSS   VMOVSD
//	MUL1(s, x)        scalar x *= s
//	ADD1(s, x)        scalar x += s
//	VBYTES            bytes per vector, 32
//	V0 … V13          the vector registers, Y0 … Y13
//	MOVV              packed load/store            VMOVUPS
//	ZERO(x)           x = +0 in every lane
//	BCAST(m, x)       element at m into every lane of x
//	BCASTH(m, x)      BCAST into an XMM register (the VEX multiply and add
//	                  take either register size)
//	MULV(s, x)        packed x *= s
//	MULC(s, a, x)     packed x = a * s, a kept
//	ADDV(s, x)        packed x += s
//
//	GROUP_END(l, s)   after a group's last term: on to store s when the
//	                  reduction is done, else step the a pointers to the
//	                  next group and go on with loop l
//
// Every operation is one IEEE multiply or one IEEE add per lane; the
// products always have the a element as first source and the sums the
// accumulator. Packed moves and the zeroing XOR are bitwise, so the PS forms
// serve both element widths. Everything below that is not a row stride
// counts in bytes, so the column ladder — two vectors, one vector, one XMM,
// one element — and every address computation are the same text in both
// kernels. The text is VEX throughout, scalar column included: no legacy
// SSE instruction runs while the upper YMM halves are live.
//
// Registers: R8–R11 a pointers of the tile's rows, R12 ats in bytes, R13
// n in bytes (row stride of b and dst), R14 column offset in bytes, R15
// rows left, SI b pointer, CX reduction counter; in the reduction loops BX
// counts the terms left in the current group of tw, DI points at the
// group's entry of groups and DX holds the step of the a pointers from the
// end of the group to the start of the next; AX, BX, DX, DI scratch
// elsewhere. The dst and init pointers of the tile's rows, their a pointers
// at a group offset of 0, the tile's first row's a pointer by ars alone,
// its entry of rowAt (0 without a table) and tw·ats live in the frame.

	MOVQ rows+80(FP), R15
	MOVQ n+96(FP), R13
	SHLQ $ESHIFT, R13
	MOVQ ats+48(FP), R12
	SHLQ $ESHIFT, R12
	MOVQ a+24(FP), R8
	MOVQ R8, rb-104(SP)
	MOVQ rowAt+40(FP), DI
	MOVQ DI, rt-112(SP)
	MOVQ tw+56(FP), DI
	IMULQ ats+48(FP), DI
	MOVQ DI, tws-120(SP)
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

	MOVQ  rb-104(SP), R8
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

	// Each row adds its own entry of rowAt, when there is a table.
	MOVQ  rt-112(SP), DI
	TESTQ DI, DI
	JZ    rows_ready
	MOVQ  (DI), CX
	SHLQ  $ESHIFT, CX
	ADDQ  CX, R8
	MOVQ  (DI)(AX*8), CX
	SHLQ  $ESHIFT, CX
	ADDQ  CX, R9
	MOVQ  (DI)(BX*8), CX
	SHLQ  $ESHIFT, CX
	ADDQ  CX, R10
	MOVQ  (DI)(DX*8), CX
	SHLQ  $ESHIFT, CX
	ADDQ  CX, R11

rows_ready:
	MOVQ  R8, a0-72(SP)
	MOVQ  R9, a1-80(SP)
	MOVQ  R10, a2-88(SP)
	MOVQ  R11, a3-96(SP)

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
	ZERO(V0)
	ZERO(V1)
	ZERO(V2)
	ZERO(V3)
	ZERO(V4)
	ZERO(V5)
	ZERO(V6)
	ZERO(V7)
	MOVQ b+72(FP), SI
	ADDQ R14, SI
	MOVQ kc+88(FP), CX
	MOVQ tw+56(FP), BX
	MOVQ groups+64(FP), DI
	MOVQ (DI), AX
	SHLQ $ESHIFT, AX
	MOVQ a0-72(SP), R8
	ADDQ AX, R8
	MOVQ a1-80(SP), R9
	ADDQ AX, R9
	MOVQ a2-88(SP), R10
	ADDQ AX, R10
	MOVQ a3-96(SP), R11
	ADDQ AX, R11

	// DX: the step from the end of the first group to the start of the
	// second, groups[1] - groups[0] - tw·ats, in bytes, if there is one.
	CMPQ CX, BX
	JLE  cols_chunk
	MOVQ 8(DI), DX
	SUBQ (DI), DX
	SUBQ tws-120(SP), DX
	SHLQ $ESHIFT, DX

cols_chunk:
	MOVQ R13, AX
	SUBQ R14, AX
	CMPQ AX, $(2*VBYTES)
	JGE  tile_v2
	CMPQ AX, $VBYTES
	JGE  tile_v1
	CMPQ AX, $16
	JGE  tile_h1
	CMPQ AX, $ESIZE
	JGE  tile_e1

	// Next four rows. init advances by its own stride, so a bias (stride
	// 0) stays put; a nil init is never dereferenced.
	MOVQ  ars+32(FP), AX
	SHLQ  $(ESHIFT+2), AX
	ADDQ  AX, rb-104(SP)
	MOVQ  rt-112(SP), AX
	TESTQ AX, AX
	JZ    rows_next
	ADDQ  $32, rt-112(SP)

rows_next:
	MOVQ R13, AX
	SHLQ $2, AX
	ADDQ AX, d0-8(SP)
	MOVQ initStride+16(FP), AX
	SHLQ $(ESHIFT+2), AX
	ADDQ AX, i0-40(SP)
	SUBQ $4, R15
	JMP  tile_rows

	// 4 rows × 2 vectors: V0–V7 accumulate (row r in V(2r), V(2r+1)),
	// V8/V9 the b row, V10–V13 the broadcast a elements and their products.
tile_v2:
	CMPQ init+8(FP), $0
	JEQ  v2_reduce
	MOVQ i0-40(SP), AX
	MOVV (AX)(R14*1), V0
	MOVV VBYTES(AX)(R14*1), V1
	MOVQ i1-48(SP), AX
	MOVV (AX)(R14*1), V2
	MOVV VBYTES(AX)(R14*1), V3
	MOVQ i2-56(SP), AX
	MOVV (AX)(R14*1), V4
	MOVV VBYTES(AX)(R14*1), V5
	MOVQ i3-64(SP), AX
	MOVV (AX)(R14*1), V6
	MOVV VBYTES(AX)(R14*1), V7

v2_reduce:
	TESTQ CX, CX
	JZ    v2_store
	PCALIGN $32

v2_loop:
	MOVV (SI), V8
	MOVV VBYTES(SI), V9
	ADDQ R13, SI
	BCAST((R8), V10)
	MULC(V9, V10, V11)
	MULV(V8, V10)
	ADDV(V10, V0)
	ADDV(V11, V1)
	BCAST((R9), V12)
	MULC(V9, V12, V13)
	MULV(V8, V12)
	ADDV(V12, V2)
	ADDV(V13, V3)
	BCAST((R10), V10)
	MULC(V9, V10, V11)
	MULV(V8, V10)
	ADDV(V10, V4)
	ADDV(V11, V5)
	BCAST((R11), V12)
	MULC(V9, V12, V13)
	MULV(V8, V12)
	ADDV(V12, V6)
	ADDV(V13, V7)
	ADDQ R12, R8
	ADDQ R12, R9
	ADDQ R12, R10
	ADDQ R12, R11
	DECQ BX
	JNZ  v2_loop
	GROUP_END(v2_loop, v2_store)

v2_store:
	MOVQ d0-8(SP), AX
	MOVV V0, (AX)(R14*1)
	MOVV V1, VBYTES(AX)(R14*1)
	MOVQ d1-16(SP), AX
	MOVV V2, (AX)(R14*1)
	MOVV V3, VBYTES(AX)(R14*1)
	MOVQ d2-24(SP), AX
	MOVV V4, (AX)(R14*1)
	MOVV V5, VBYTES(AX)(R14*1)
	MOVQ d3-32(SP), AX
	MOVV V6, (AX)(R14*1)
	MOVV V7, VBYTES(AX)(R14*1)
	ADDQ $(2*VBYTES), R14
	JMP  tile_cols

	// 4 rows × 1 vector: V0–V3 accumulate, V8 the b row.
tile_v1:
	CMPQ init+8(FP), $0
	JEQ  v1_reduce
	MOVQ i0-40(SP), AX
	MOVV (AX)(R14*1), V0
	MOVQ i1-48(SP), AX
	MOVV (AX)(R14*1), V1
	MOVQ i2-56(SP), AX
	MOVV (AX)(R14*1), V2
	MOVQ i3-64(SP), AX
	MOVV (AX)(R14*1), V3

v1_reduce:
	TESTQ CX, CX
	JZ    v1_store
	PCALIGN $32

v1_loop:
	MOVV (SI), V8
	ADDQ R13, SI
	BCAST((R8), V10)
	MULV(V8, V10)
	ADDV(V10, V0)
	BCAST((R9), V11)
	MULV(V8, V11)
	ADDV(V11, V1)
	BCAST((R10), V12)
	MULV(V8, V12)
	ADDV(V12, V2)
	BCAST((R11), V13)
	MULV(V8, V13)
	ADDV(V13, V3)
	ADDQ R12, R8
	ADDQ R12, R9
	ADDQ R12, R10
	ADDQ R12, R11
	DECQ BX
	JNZ  v1_loop
	GROUP_END(v1_loop, v1_store)

v1_store:
	MOVQ d0-8(SP), AX
	MOVV V0, (AX)(R14*1)
	MOVQ d1-16(SP), AX
	MOVV V1, (AX)(R14*1)
	MOVQ d2-24(SP), AX
	MOVV V2, (AX)(R14*1)
	MOVQ d3-32(SP), AX
	MOVV V3, (AX)(R14*1)
	ADDQ $VBYTES, R14
	JMP  tile_cols

	// 4 rows × the XMM half of a vector (16 to 31 bytes of the row left):
	// the one-vector chunk again on X0–X3 and X8.
tile_h1:
	CMPQ init+8(FP), $0
	JEQ  h1_reduce
	MOVQ i0-40(SP), AX
	MOVV (AX)(R14*1), X0
	MOVQ i1-48(SP), AX
	MOVV (AX)(R14*1), X1
	MOVQ i2-56(SP), AX
	MOVV (AX)(R14*1), X2
	MOVQ i3-64(SP), AX
	MOVV (AX)(R14*1), X3

h1_reduce:
	TESTQ CX, CX
	JZ    h1_store
	PCALIGN $32

h1_loop:
	MOVV (SI), X8
	ADDQ R13, SI
	BCASTH((R8), X10)
	MULV(X8, X10)
	ADDV(X10, X0)
	BCASTH((R9), X11)
	MULV(X8, X11)
	ADDV(X11, X1)
	BCASTH((R10), X12)
	MULV(X8, X12)
	ADDV(X12, X2)
	BCASTH((R11), X13)
	MULV(X8, X13)
	ADDV(X13, X3)
	ADDQ R12, R8
	ADDQ R12, R9
	ADDQ R12, R10
	ADDQ R12, R11
	DECQ BX
	JNZ  h1_loop
	GROUP_END(h1_loop, h1_store)

h1_store:
	MOVQ d0-8(SP), AX
	MOVV X0, (AX)(R14*1)
	MOVQ d1-16(SP), AX
	MOVV X1, (AX)(R14*1)
	MOVQ d2-24(SP), AX
	MOVV X2, (AX)(R14*1)
	MOVQ d3-32(SP), AX
	MOVV X3, (AX)(R14*1)
	ADDQ $16, R14
	JMP  tile_cols

	// 4 rows × 1 element (the columns past the last whole vector): the
	// same sequence on scalars, in lane 0 of X0–X3, X8 and X10–X13.
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
	PCALIGN $32

e1_loop:
	MOV1 (SI), X8
	ADDQ R13, SI
	MOV1 (R8), X10
	MUL1(X8, X10)
	ADD1(X10, X0)
	MOV1 (R9), X11
	MUL1(X8, X11)
	ADD1(X11, X1)
	MOV1 (R10), X12
	MUL1(X8, X12)
	ADD1(X12, X2)
	MOV1 (R11), X13
	MUL1(X8, X13)
	ADD1(X13, X3)
	ADDQ R12, R8
	ADDQ R12, R9
	ADDQ R12, R10
	ADDQ R12, R11
	DECQ BX
	JNZ  e1_loop
	GROUP_END(e1_loop, e1_store)

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

	JMP tile_cols

tile_done:
