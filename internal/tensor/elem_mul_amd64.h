// Body of the elementwise product, written once for both element widths
// and included under one TEXT line per width (elem_amd64.s), each of
//
//	func(dst, a, b *T, n int)
//
// with frame $0-32 and n a multiple of the lanes; the including TEXT
// supplies the return. A lane is MULV of a by b, mulGo's v·b[i].
//
// Registers: DI dst, SI a, R8 b, CX n in bytes, AX byte offset.

	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), CX
	SHLQ $ESHIFT, CX
	XORQ AX, AX
	JMP  mul_cond

mul_loop:
	MOVV (SI)(AX*1), V1
	MULV((R8)(AX*1), V1)
	MOVV V1, (DI)(AX*1)
	ADDQ $VBYTES, AX

mul_cond:
	CMPQ AX, CX
	JLT  mul_loop
