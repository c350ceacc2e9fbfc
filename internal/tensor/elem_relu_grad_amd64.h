// Body of the ReLU gradient kernel, written once for both element widths
// and included under one TEXT line per width (elem_amd64.s), each of
//
//	func(dst, x, grad *T, n int)
//
// with frame $0-32 and n a multiple of the lanes; the including TEXT
// supplies the return. A lane is g's bits under the mask (+0 < x) and +0
// elsewhere — the compare is false for NaN and for ±0, exactly reluGradGo's
// v > 0 ? g : 0.
//
// Registers: DI dst, SI x, R8 g, CX n in bytes, AX byte offset, V0 +0.

	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ grad+16(FP), R8
	MOVQ n+24(FP), CX
	SHLQ $ESHIFT, CX
	XORQ AX, AX
	ZERO(V0)
	JMP  relugrad_cond

relugrad_loop:
	MOVV (SI)(AX*1), V1
	MOVV (R8)(AX*1), V2
	CMPLT(V1, V0, V3)     // +0 < x
	ANDV(V2, V3)
	MOVV V3, (DI)(AX*1)
	ADDQ $VBYTES, AX

relugrad_cond:
	CMPQ AX, CX
	JLT  relugrad_loop
