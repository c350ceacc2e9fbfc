// Body of the f64 GemmBT kernel, included under its TEXT line
// (gemm_amd64.s),
//
//	func(dst *float64, ldd int, a, b *float64, rows, cols, n int)
//
// with frame $16-56. This text is the walk over 4 × 4 output blocks — a
// last group of one to three rows (or columns) is taken as the last four —
// and the including file defines what a block is made of:
//
//	BTD_ZERO    the block's accumulators = +0
//	BTD_STEP    one reduction step: element DX/8 of a rows R8–R11 against
//	            the same element of b rows R12–R15, added to the accumulators
//	BTD_STORE   the block to BX, BX+DI, BX+2·DI, BX+3·DI; AX is scratch
//
// Like gemm_tile_amd64.h it falls out of its last line when done; the
// including TEXT returns.
//
// Registers: R8–R11 a rows of the group, R12–R15 b rows of the block, DX
// byte offset along the dot, SI n in bytes, DI ldd in bytes, BX dst of the
// block's first element, CX columns left; AX scratch. Rows left and the dst
// of the group's first row live in the frame.

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
	BTD_ZERO
	XORQ DX, DX
	PCALIGN $32

btd_dot:
	BTD_STEP
	ADDQ $8, DX
	CMPQ DX, SI
	JLT  btd_dot

	BTD_STORE

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

