// Body of the dropout forward kernel, written once for both element widths
// and included under one TEXT line per width (elem_amd64.s), each of
//
//	func(out, mask, x *T, n int, keep T, thr uint64, draws *uint64) int
//
// with frame $0-64 and n a multiple of the lanes; the including TEXT
// defines SEL and DSCALE, stores AX, the elements written, as the result
// and supplies the return. draws points at the Stream's next draw, with the
// last 607 before it. A vector's draws are math/rand's recurrence, four
// 64-bit lanes at a time — d[i] = d[i−607] + d[i−273], each read 273 or
// more words behind what the vector writes — stored back to draws. The
// body stops before a vector with a draw whose low 63 bits v reach
// 2⁶³ − 512, where rand.Float64 redraws; otherwise an element is kept
// where v > thr − 1 (a signed compare: v < 2⁶³, and thr − 1 ≥ −1), which
// is Float64 ≥ rate (dropThreshold). A kept lane is x·keep and mask keep,
// a dropped one +0 in both: DropoutEach's bit-mask select.
//
//	DRAW(off, v, r)  the four draws at draws + AX·DSCALE + off, stored; v
//	                 their keep lanes, r their redraw lanes, all ones or 0
//	SEL              the keep lanes of one element vector into V4, its
//	                 redraw lanes (any nonzero) into Y6
//
// Registers: DI out, SI mask, R8 x, DX draws, R9 draws − 607 words, R10
// draws − 273 words, CX n in bytes, AX byte offset, V0 keep, Y1 thr − 1,
// Y2 2⁶³ − 1, Y3 2⁶³ − 513.

#define DRAW(off, v, r) \
	VMOVDQU off(R9)(AX*DSCALE), v; \
	VPADDQ off(R10)(AX*DSCALE), v, v; \
	VMOVDQU v, off(DX)(AX*DSCALE); \
	VPAND Y2, v, v; \
	VPCMPGTQ Y3, v, r; \
	VPCMPGTQ Y1, v, v

	MOVQ out+0(FP), DI
	MOVQ mask+8(FP), SI
	MOVQ x+16(FP), R8
	MOVQ n+24(FP), CX
	SHLQ $ESHIFT, CX
	BCAST(keep+32(FP), V0)
	MOVQ thr+40(FP), AX
	DECQ AX
	VMOVQ AX, X1
	VPBROADCASTQ X1, Y1
	VPCMPEQQ Y2, Y2, Y2
	VPSRLQ $1, Y2, Y2
	MOVQ $0x7ffffffffffffdff, AX
	VMOVQ AX, X3
	VPBROADCASTQ X3, Y3
	MOVQ draws+48(FP), DX
	LEAQ -4856(DX), R9
	LEAQ -2184(DX), R10
	XORQ AX, AX
	JMP  dropout_cond

dropout_loop:
	SEL
	VPTEST Y6, Y6
	JNE    dropout_stop
	MOVV   (R8)(AX*1), V7
	MULV(V0, V7)
	ANDV(V4, V7)
	MOVV   V7, (DI)(AX*1)
	ANDV(V0, V4)
	MOVV   V4, (SI)(AX*1)
	ADDQ   $VBYTES, AX

dropout_cond:
	CMPQ AX, CX
	JLT  dropout_loop

dropout_stop:
	SHRQ $ESHIFT, AX

#undef DRAW
