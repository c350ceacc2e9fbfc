//go:build !purego

// Elementwise kernels. Reference semantics (and required bit-for-bit
// behavior) are the Go loops of elem.go and dropout.go: adamGo, reluGo,
// reluGradGo, tanhGo, sigmoidGo, mulGo and DropoutEach. Each kernel is one body text, included once per element
// width, like the tile kernels of gemm_amd64.s: the vector macros are set
// once for the file, the element macros per element width. Every kernel is
// AVX2, run only where gemm_amd64.go's CPUID check allows. Every arithmetic
// macro is one packed IEEE operation per lane — no reciprocal estimate, no
// fused multiply-add — and x is its first source:
//
//	BCAST(m, x)       element at m into every lane of x
//	MULV(s, x)        x = x·s                 ADDV, SUBV, DIVV the same
//	MULC(s, a, x)     x = a·s, a kept
//	SQRTV(s, x)       x = sqrt(s)
//	MAXV(s, x)        x = x > s ? x : s       (s for NaN and for ±0 pairs)
//	CMPLT(b, a, m)    m = a < b ? all ones : 0
//	ANDV(s, x)        x = x & s, bitwise

#include "textflag.h"
#include "elem_exp_amd64.h"

// 32-byte vectors: VEX, three-operand, VZEROUPPER before every RET.
#define VBYTES 32
#define V0 Y0
#define V1 Y1
#define V2 Y2
#define V3 Y3
#define V4 Y4
#define V5 Y5
#define V6 Y6
#define V7 Y7
#define V8 Y8
#define V9 Y9
#define V10 Y10
#define V11 Y11
#define V12 Y12
#define V13 Y13
#define MOVV VMOVUPS
#define ZERO(x) VXORPS x, x, x

#define ESIZE 4
#define ESHIFT 2
#define BCAST(m, x) VBROADCASTSS m, x
#define MULV(s, x) VMULPS s, x, x
#define MULC(s, a, x) VMULPS s, a, x
#define ADDV(s, x) VADDPS s, x, x
#define SUBV(s, x) VSUBPS s, x, x
#define DIVV(s, x) VDIVPS s, x, x
#define SQRTV(s, x) VSQRTPS s, x
#define MAXV(s, x) VMAXPS s, x, x
#define CMPLT(b, a, m) VCMPPS $1, b, a, m
#define ANDV(s, x) VANDPS s, x, x

// func adamF32AVX2(w, grad, m, v *float32, n int, k *AdamCoefs[float32])
TEXT ·adamF32AVX2(SB), NOSPLIT, $0-48
#include "elem_adam_amd64.h"
	VZEROUPPER
	RET

// func reluF32AVX2(dst, x *float32, n int)
TEXT ·reluF32AVX2(SB), NOSPLIT, $0-24
#include "elem_relu_amd64.h"
	VZEROUPPER
	RET

// func reluGradF32AVX2(dst, x, grad *float32, n int)
TEXT ·reluGradF32AVX2(SB), NOSPLIT, $0-32
#include "elem_relu_grad_amd64.h"
	VZEROUPPER
	RET

// Tanh and Sigmoid: their exponential is math.Exp's FMA sequence (EXPV,
// elem_exp_amd64.h), four float64 lanes at either element width — a float32
// vector is widened on load and narrowed on store.
#define STEP 16
#define LOAD4(m, y) VCVTPS2PD m, y
#define STORE4(y, m) VCVTPD2PSY y, X15; VMOVUPS X15, m

// func tanhF32AVX2(dst, x *float32, n int)
TEXT ·tanhF32AVX2(SB), NOSPLIT, $0-24
#include "elem_tanh_amd64.h"
	VZEROUPPER
	RET

// func sigmoidF32AVX2(dst, x *float32, n int) int
TEXT ·sigmoidF32AVX2(SB), NOSPLIT, $0-32
#include "elem_sigmoid_amd64.h"
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

#undef STEP
#undef LOAD4
#undef STORE4

// func mulF32AVX2(dst, a, b *float32, n int)
TEXT ·mulF32AVX2(SB), NOSPLIT, $0-32
#include "elem_mul_amd64.h"
	VZEROUPPER
	RET

// Dropout: eight float32 elements take two vectors of draws, whose 64-bit
// keep lanes are packed to eight 32-bit ones (every lane is all ones or 0,
// so its low half is its value): VSHUFPS takes the even halves of both
// vectors in 128-bit lane order, 0 1 4 5 | 2 3 6 7, and VPERMQ puts the
// quarters in element order.
#define DSCALE 2
#define SEL \
	DRAW(0, Y4, Y6); \
	DRAW(32, Y5, Y7); \
	VPOR Y7, Y6, Y6; \
	VSHUFPS $0x88, Y5, Y4, Y4; \
	VPERMQ $0xD8, Y4, Y4

// func dropoutF32AVX2(out, mask, x *float32, n int, keep float32, thr uint64, draws *uint64) int
TEXT ·dropoutF32AVX2(SB), NOSPLIT, $0-64
#include "elem_dropout_amd64.h"
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

#undef DSCALE
#undef SEL

#undef ESIZE
#undef ESHIFT
#undef BCAST
#undef MULV
#undef MULC
#undef ADDV
#undef SUBV
#undef DIVV
#undef SQRTV
#undef MAXV
#undef CMPLT
#undef ANDV

#define ESIZE 8
#define ESHIFT 3
#define BCAST(m, x) VBROADCASTSD m, x
#define MULV(s, x) VMULPD s, x, x
#define MULC(s, a, x) VMULPD s, a, x
#define ADDV(s, x) VADDPD s, x, x
#define SUBV(s, x) VSUBPD s, x, x
#define DIVV(s, x) VDIVPD s, x, x
#define SQRTV(s, x) VSQRTPD s, x
#define MAXV(s, x) VMAXPD s, x, x
#define CMPLT(b, a, m) VCMPPD $1, b, a, m
#define ANDV(s, x) VANDPD s, x, x

// func adamF64AVX2(w, grad, m, v *float64, n int, k *AdamCoefs[float64])
TEXT ·adamF64AVX2(SB), NOSPLIT, $0-48
#include "elem_adam_amd64.h"
	VZEROUPPER
	RET

// func reluF64AVX2(dst, x *float64, n int)
TEXT ·reluF64AVX2(SB), NOSPLIT, $0-24
#include "elem_relu_amd64.h"
	VZEROUPPER
	RET

// func reluGradF64AVX2(dst, x, grad *float64, n int)
TEXT ·reluGradF64AVX2(SB), NOSPLIT, $0-32
#include "elem_relu_grad_amd64.h"
	VZEROUPPER
	RET

#define STEP 32
#define LOAD4(m, y) VMOVUPD m, y
#define STORE4(y, m) VMOVUPD y, m

// func tanhF64AVX2(dst, x *float64, n int)
TEXT ·tanhF64AVX2(SB), NOSPLIT, $0-24
#include "elem_tanh_amd64.h"
	VZEROUPPER
	RET

// func sigmoidF64AVX2(dst, x *float64, n int) int
TEXT ·sigmoidF64AVX2(SB), NOSPLIT, $0-32
#include "elem_sigmoid_amd64.h"
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func mulF64AVX2(dst, a, b *float64, n int)
TEXT ·mulF64AVX2(SB), NOSPLIT, $0-32
#include "elem_mul_amd64.h"
	VZEROUPPER
	RET

// Dropout: four float64 elements take one vector of draws.
#define DSCALE 1
#define SEL DRAW(0, Y4, Y6)

// func dropoutF64AVX2(out, mask, x *float64, n int, keep float64, thr uint64, draws *uint64) int
TEXT ·dropoutF64AVX2(SB), NOSPLIT, $0-64
#include "elem_dropout_amd64.h"
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET
