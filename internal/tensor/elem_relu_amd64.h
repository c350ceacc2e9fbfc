// Body of the ReLU kernel, written once for both element widths and
// included under one TEXT line per width (elem_amd64.s), each of
//
//	func(dst, x *T, n int)
//
// with frame $0-24 and n a multiple of the lanes; the including TEXT
// supplies the return. A lane is MAXV of x with +0 as the second source:
// x where x > +0, otherwise that +0 — for −0, +0 and NaN too, exactly
// reluGo's v > 0 ? v : 0.
//
// Registers: DI dst, SI x, CX n in bytes, AX byte offset, V0 +0.

	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $ESHIFT, CX
	XORQ AX, AX
	ZERO(V0)
	JMP  relu_cond

relu_loop:
	MOVV (SI)(AX*1), V1
	MAXV(V0, V1)
	MOVV V1, (DI)(AX*1)
	ADDQ $VBYTES, AX

relu_cond:
	CMPQ AX, CX
	JLT  relu_loop
