// The exponential of the Tanh and Sigmoid bodies (elem_tanh_amd64.h,
// elem_sigmoid_amd64.h), and the rows of expConsts they read (elem_amd64.go
// builds the table: one 32-byte row per constant, every lane equal).
//
// EXPV is math.Exp's amd64 sequence — archExp in the math package's
// exp_amd64.s, on its FMA path — lane for lane: the same instructions at
// four float64 lanes, in the same order, on the same constants. It is that
// sequence only on archExp's normal path: a finite x no larger than
// 709.78…, whose biased exponent k+1023 lies in (0, 0x7FF). A lane off it
// (NaN, ±Inf, an overflow, a subnormal or zero result) holds a meaningless
// value; the caller either discards it (Tanh's arguments are in [0, 88]
// wherever the result is used) or tests k and hands the vector to the Go
// loop (Sigmoid). Operands: x the argument and result, kd a YMM temporary,
// p a YMM temporary, ki an XMM register left holding k as four int32s.

#define LOG2E ·expConsts+0(SB)
#define LN2U ·expConsts+32(SB)
#define LN2L ·expConsts+64(SB)
#define SIXTEENTH ·expConsts+96(SB)
#define EXPC0 ·expConsts+128(SB)
#define EXPC1 ·expConsts+160(SB)
#define EXPC2 ·expConsts+192(SB)
#define EXPC3 ·expConsts+224(SB)
#define EXPC4 ·expConsts+256(SB)
#define EXPC5 ·expConsts+288(SB)
#define HALF ·expConsts+320(SB)
#define ONE ·expConsts+352(SB)
#define TWO ·expConsts+384(SB)
#define BIAS ·expConsts+416(SB)
#define KMIN ·expConsts+448(SB)
#define KMAX ·expConsts+480(SB)
#define ABSMASK ·expConsts+512(SB)
#define SIGNMASK ·expConsts+544(SB)
#define TANHSPLIT ·expConsts+576(SB)
#define TANHSAT ·expConsts+608(SB)
#define TANHP0 ·expConsts+640(SB)
#define TANHP1 ·expConsts+672(SB)
#define TANHP2 ·expConsts+704(SB)
#define TANHQ0 ·expConsts+736(SB)
#define TANHQ1 ·expConsts+768(SB)
#define TANHQ2 ·expConsts+800(SB)

// k = round(x·LOG2E); r = ((x − k·LN2U) − k·LN2L)·(1/16), both products
// fused; e^r − 1 by Horner over the Taylor coefficients, fused; squared
// back up four times as y·(y+2), the last one fused with the +1; then the
// product with 2^k, built as (k+1023)<<52 in int64 lanes.
#define EXPV(x, kd, p, ki) \
	VMULPD       LOG2E, x, kd;   \
	VCVTPD2DQY   kd, ki;         \
	VCVTDQ2PD    ki, kd;         \
	VFNMADD231PD LN2U, kd, x;    \
	VFNMADD231PD LN2L, kd, x;    \
	VMULPD       SIXTEENTH, x, x; \
	VMOVUPD      EXPC0, p;       \
	VFMADD213PD  EXPC1, x, p;    \
	VFMADD213PD  EXPC2, x, p;    \
	VFMADD213PD  EXPC3, x, p;    \
	VFMADD213PD  EXPC4, x, p;    \
	VFMADD213PD  EXPC5, x, p;    \
	VFMADD213PD  HALF, x, p;     \
	VFMADD213PD  ONE, x, p;      \
	VMULPD       p, x, x;        \
	VADDPD       TWO, x, p;      \
	VMULPD       p, x, x;        \
	VADDPD       TWO, x, p;      \
	VMULPD       p, x, x;        \
	VADDPD       TWO, x, p;      \
	VMULPD       p, x, x;        \
	VADDPD       TWO, x, p;      \
	VFMADD213PD  ONE, p, x;      \
	VPMOVSXDQ    ki, kd;         \
	VPADDQ       BIAS, kd, kd;   \
	VPSLLQ       $52, kd, kd;    \
	VMULPD       kd, x, x
