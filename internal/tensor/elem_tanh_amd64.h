// Body of the Tanh kernel, written once for both element widths and
// included under one TEXT line per width (elem_amd64.s), each of
//
//	func(dst, x *T, n int)
//
// with frame $0-24 and n a multiple of four; the including TEXT supplies
// the return. Besides EXPV and the rows of elem_exp_amd64.h it uses LOAD4
// (four elements into four float64 lanes), STORE4 (four lanes back at T)
// and STEP (the bytes of four elements).
//
// A lane is math.Tanh's float64 function (tanh.go) with no branch: both of
// its arms are computed and the one the argument takes is blended in, each
// arm the function's IEEE operations in its order.
//
//	|x| ≥ 0.625:  s = Exp(2|x|); ±(1 − 2/(s+1)), the sign of x
//	otherwise:    s = x·x; x + x·s·P(s)/Q(s)
//
// The two share one divide — 2/(s+1) or x·s·P/Q by the blended numerator
// and denominator. Then x == ±0 gives x, and |x| > 0.5·MAXLOG (±Inf too)
// gives ±1. A NaN fails every compare and takes the second arm: NaN.
//
// Registers: DI dst, SI x, CX n in bytes, AX byte offset; Y0 x, Y1 |x|,
// Y2 s of the first arm, Y6 s of the second, Y7 P, Y8 Q, Y9 x·s·P, Y10 the
// first arm's lanes, Y11–Y13 the quotient and the blends; Y3, Y4, X5 EXPV's.

	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $ESHIFT, CX
	XORQ AX, AX
	JMP  tanh_cond

tanh_loop:
	LOAD4((SI)(AX*1), Y0)
	VANDPD    ABSMASK, Y0, Y1
	VADDPD    Y1, Y1, Y2               // 2|x|
	EXPV(Y2, Y3, Y4, X5)               // s = Exp(2|x|)
	VADDPD    ONE, Y2, Y2              // s + 1
	VMULPD    Y0, Y0, Y6               // s = x·x
	VMULPD    TANHP0, Y6, Y7
	VADDPD    TANHP1, Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    TANHP2, Y7, Y7           // P = (P0·s + P1)·s + P2
	VADDPD    TANHQ0, Y6, Y8
	VMULPD    Y6, Y8, Y8
	VADDPD    TANHQ1, Y8, Y8
	VMULPD    Y6, Y8, Y8
	VADDPD    TANHQ2, Y8, Y8           // Q = ((s + Q0)·s + Q1)·s + Q2
	VMULPD    Y6, Y0, Y9
	VMULPD    Y7, Y9, Y9               // x·s·P
	VCMPPD    $0x1d, TANHSPLIT, Y1, Y10 // |x| ≥ 0.625
	VBLENDVPD Y10, TWO, Y9, Y11
	VBLENDVPD Y10, Y2, Y8, Y12
	VDIVPD    Y12, Y11, Y11            // 2/(s+1), or x·s·P/Q
	VMOVUPD   ONE, Y12
	VSUBPD    Y11, Y12, Y12            // 1 − 2/(s+1)
	VANDPD    SIGNMASK, Y0, Y13
	VXORPD    Y13, Y12, Y12            // negated where x < 0
	VADDPD    Y11, Y0, Y11             // x + x·s·P/Q
	VBLENDVPD Y10, Y12, Y11, Y11
	VXORPD    Y12, Y12, Y12
	VCMPPD    $0x00, Y12, Y0, Y12      // x == ±0
	VBLENDVPD Y12, Y0, Y11, Y11
	VCMPPD    $0x1e, TANHSAT, Y1, Y12  // |x| > 0.5·MAXLOG
	VORPD     ONE, Y13, Y13            // ±1, the sign of x
	VBLENDVPD Y12, Y13, Y11, Y11
	STORE4(Y11, (DI)(AX*1))
	ADDQ      $STEP, AX

tanh_cond:
	CMPQ AX, CX
	JLT  tanh_loop
