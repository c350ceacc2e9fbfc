// Body of the Sigmoid kernel, written once for both element widths and
// included under one TEXT line per width (elem_amd64.s), each of
//
//	func(dst, x *T, n int) int
//
// with frame $0-32 and n a multiple of four. It falls out of its last line
// with the count it wrote in AX; the including TEXT stores that as the
// result, where vet's asmdecl sees the store, and returns. Besides EXPV and
// the rows of elem_exp_amd64.h it uses LOAD4, STORE4 and STEP
// (elem_tanh_amd64.h).
//
// A lane is 1/(1 + Exp(−x)): the negation, EXPV, one add and one divide.
// EXPV is Exp only on its normal path, so each vector's k is checked before
// its store: a lane with k ≤ −1023 or k > 1023 — which every non-finite
// argument, every argument above 709.78… (k ≥ 1024) and every result off a
// normal biased exponent has — stops the body before that vector. It
// returns how many elements it wrote; sigmoidBody runs the stopped vector
// through the Go loop and calls it again for the rest.
//
// Registers: DI dst, SI x, CX n in bytes, AX byte offset; Y0 the lane,
// Y1 the quotient, X6 and X7 the k checks, R8 their lane mask; Y3, Y4, X5
// EXPV's.

	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $ESHIFT, CX
	XORQ AX, AX
	JMP  sigmoid_cond

sigmoid_loop:
	LOAD4((SI)(AX*1), Y0)
	VXORPD     SIGNMASK, Y0, Y0        // −x
	EXPV(Y0, Y3, Y4, X5)
	VPCMPGTD   KMIN, X5, X6            // k > −1023
	VPCMPGTD   KMAX, X5, X7            // k > 1023
	VPANDN     X6, X7, X7              // in range
	VMOVMSKPS  X7, R8
	CMPQ       R8, $15
	JNE        sigmoid_done
	VADDPD     ONE, Y0, Y0             // 1 + Exp(−x)
	VMOVUPD    ONE, Y1
	VDIVPD     Y0, Y1, Y1
	STORE4(Y1, (DI)(AX*1))
	ADDQ       $STEP, AX

sigmoid_cond:
	CMPQ AX, CX
	JLT  sigmoid_loop

sigmoid_done:
	SHRQ $ESHIFT, AX
