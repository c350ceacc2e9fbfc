// Body of the Adam kernel, written once for both element widths and
// included under one TEXT line per width (elem_amd64.s), each of
//
//	func(w, grad, m, v *T, n int, k *AdamCoefs[T])
//
// with frame $0-48 and n a multiple of the lanes. It falls out of its last
// line when done; the including TEXT supplies the return. Besides the
// vector macros of the file it uses BCAST, MULV, MULC, ADDV, SUBV, DIVV and
// SQRTV (elem_amd64.s).
//
// A lane is adamGo's element: every operation is one IEEE operation, in
// adamGo's order. Each commutative one also takes the first source a
// default (non-race) build of adamGo gives it — the weight, moment or
// gradient before the coefficient in each product, the gradient before its
// own square's factor, the second term first in each moment sum — which
// decides only which payload a NaN meeting a NaN keeps. The L2 term is a
// branch on the flag, taken or not for the whole call.
//
// Registers: V0–V8 the coefficients B1, OB1, B2, OB2, C1, C2, LR, Eps, L2x2
// in every lane; DI w, SI g, R8 m, R9 v, CX n in bytes, AX byte offset, DX
// the L2 flag, BX the coefficients; V9–V13 temporaries.

	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	SHLQ $ESHIFT, CX
	MOVQ k+40(FP), BX
	BCAST((0*ESIZE)(BX), V0)
	BCAST((1*ESIZE)(BX), V1)
	BCAST((2*ESIZE)(BX), V2)
	BCAST((3*ESIZE)(BX), V3)
	BCAST((4*ESIZE)(BX), V4)
	BCAST((5*ESIZE)(BX), V5)
	BCAST((6*ESIZE)(BX), V6)
	BCAST((7*ESIZE)(BX), V7)
	BCAST((8*ESIZE)(BX), V8)
	MOVBQZX (9*ESIZE)(BX), DX
	XORQ    AX, AX
	JMP     adam_cond

adam_loop:
	MOVV  (DI)(AX*1), V13 // w
	MOVV  (SI)(AX*1), V9  // gi
	TESTQ DX, DX
	JZ    adam_moments
	MULC(V8, V13, V10)    // w·L2x2
	ADDV(V10, V9)         // gi + w·L2x2

adam_moments:
	MOVV (R8)(AX*1), V10
	MULV(V0, V10)         // m·B1
	MULC(V1, V9, V11)     // gi·OB1
	ADDV(V10, V11)        // gi·OB1 + m·B1
	MOVV V11, (R8)(AX*1)
	MOVV (R9)(AX*1), V10
	MULV(V2, V10)         // v·B2
	MULC(V3, V9, V12)     // gi·OB2
	MULV(V12, V9)         // gi·(gi·OB2)
	ADDV(V10, V9)         // gi·(gi·OB2) + v·B2
	MOVV V9, (R9)(AX*1)
	DIVV(V4, V11)         // m/C1
	DIVV(V5, V9)          // v/C2
	MULV(V6, V11)         // (m/C1)·LR
	SQRTV(V9, V9)
	ADDV(V7, V9)          // sqrt(v/C2) + Eps
	DIVV(V9, V11)
	SUBV(V11, V13)        // w − step
	MOVV V13, (DI)(AX*1)
	ADDQ $VBYTES, AX

adam_cond:
	CMPQ AX, CX
	JLT  adam_loop
