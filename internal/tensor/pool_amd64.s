//go:build !purego

// Max-pool row kernels. Reference semantics (and required bit-for-bit
// behavior) are maxPoolRowGo in pool.go. One body text (pool_amd64.h),
// included once per element width; AVX2, run only where gemm_amd64.go's
// CPUID check allows. Compares, maxima and blends only: no arithmetic on a
// value, so every output is one of the taps' bit patterns.

#include "textflag.h"

#define LANES32 8
#define LANES16 4
#define ESIZE 4
#define ESHIFT 2
#define GT(s, a, m) VCMPPS $0x1e, s, a, m
#define TAKE(v, x) VMAXPS x, v, x
#define BLENDI(m, s, x) VBLENDVPS m, s, x, x
#define ADDI(s, x) VPADDD s, x, x
#define BCASTI(s, x) VPBROADCASTD s, x
#define STOREIY(m) VMOVDQU Y1, m
#define STOREIX(m) VMOVDQU X1, m
#define NEGINF ·poolConsts+0(SB)
#define IOTA ·poolConsts+32(SB)

// func maxPoolRowF32AVX2(dst *float32, arg *int32, x *float32, at, cv, ch, inRow, kh, kw, stride, outW int)
TEXT ·maxPoolRowF32AVX2(SB), NOSPLIT, $0-88
#include "pool_amd64.h"
	VZEROUPPER
	RET

#undef LANES32
#undef LANES16
#undef ESIZE
#undef ESHIFT
#undef GT
#undef TAKE
#undef BLENDI
#undef ADDI
#undef BCASTI
#undef STOREIY
#undef STOREIX
#undef NEGINF
#undef IOTA

// At float64 an index lane is 64 bits; a store keeps the low half of each
// (VSHUFPS picks dwords 0 and 2 of each 128-bit half).
#define LANES32 4
#define LANES16 2
#define ESIZE 8
#define ESHIFT 3
#define GT(s, a, m) VCMPPD $0x1e, s, a, m
#define TAKE(v, x) VMAXPD x, v, x
#define BLENDI(m, s, x) VBLENDVPD m, s, x, x
#define ADDI(s, x) VPADDQ s, x, x
#define BCASTI(s, x) VPBROADCASTQ s, x
#define STOREIY(m) VEXTRACTI128 $1, Y1, X9; VSHUFPS $0x88, X9, X1, X9; VMOVDQU X9, m
#define STOREIX(m) VSHUFPS $0x88, X1, X1, X9; VMOVQ X9, m
#define NEGINF ·poolConsts+64(SB)
#define IOTA ·poolConsts+96(SB)

// func maxPoolRowF64AVX2(dst *float64, arg *int32, x *float64, at, cv, ch, inRow, kh, kw, stride, outW int)
TEXT ·maxPoolRowF64AVX2(SB), NOSPLIT, $0-88
#include "pool_amd64.h"
	VZEROUPPER
	RET
