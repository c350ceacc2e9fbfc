// Body of the max-pool row kernel, written once for both element widths
// and included under one TEXT line per width (pool_amd64.s), each of
//
//	func(dst *T, arg *int32, x *T, at, cv, ch, inRow, kh, kw, stride, outW int)
//
// with frame $0-88: MaxPoolRow (pool.go) over channels [0, cv) of each of
// the row's outW pixels, cv a multiple of LANES16. The including TEXT
// supplies the return, VZEROUPPER first. The including file defines:
//
//	ESIZE             bytes per element
//	LANES32, LANES16  elements per 32- and per 16-byte vector
//	GT(s, a, m)       m = a > s ? all ones : 0, false on NaN (GT_OQ)
//	TAKE(v, x)        x = v > x ? v : x, x for NaN and for ±0 pairs
//	BLENDI(m, s, x)   index lanes: x = m ? s : x
//	ADDI(s, x)        index lanes: x += s
//	BCASTI(s, x)      index lane 0 of XMM s into every index lane of x
//	STOREIY(m)        Y1's index lanes as int32 at m
//	STOREIX(m)        X1's index lanes as int32 at m
//	NEGINF, IOTA      rows of poolConsts: −Inf, and the lane numbers as
//	                  index lanes
//
// Index lanes are as wide as the value lanes — int32 at float32, int64 at
// float64, narrowed to int32 by the stores — so one compare mask selects
// both. A vector of channels starts at −Inf, its tap index vector at the
// window's first tap; each tap then compares (GT, the mask, with the old
// maximum), takes the larger value (TAKE: VMAXPS/VMAXPD with the tap as
// first source is exactly the mask's choice, without a blend on the value's
// chain) and blends the tap's indices in under the mask: maxPoolRowGo's
// strict >, lane for lane, so ties keep the earlier tap and a window no tap
// of which beats −Inf keeps its first.
//
// Registers: DI dst and SI arg at the pixel, R8 x at the pixel's first tap
// and R9 that tap's index, R10 pixels left, R11 the vector's first channel,
// R12 the tap pointer, R13 window rows left, BX taps left in a window row
// (scratch elsewhere), CX cv, DX ch in bytes (the step between a row's
// taps), AX the step from a window row's last tap to the next row's first
// in bytes, R14 stride·ch (the step between pixels' first taps). V0 the
// maximum, V1 its indices, V2 the tap's indices, V3 the tap, V4 the mask;
// V5 ch and V6 the window-row step as index lanes, V7 −Inf, V8 the lane
// numbers; X9 scratch.

// POOL_TAPS runs the window over the channel vector at R11 on the given
// registers, leaving the maximum in best and its indices in idx.
#define POOL_TAPS(best, idx, tapi, v, m, stepc, stepr, ninf, lane, row, tap) \
	LEAQ    (R8)(R11*ESIZE), R12; \
	LEAQ    (R9)(R11*1), BX; \
	VMOVQ   BX, X9; \
	BCASTI(X9, tapi); \
	ADDI(lane, tapi); \
	VMOVDQU tapi, idx; \
	VMOVUPS ninf, best; \
	MOVQ    kh+56(FP), R13; \
row: \
	MOVQ    kw+64(FP), BX; \
tap: \
	VMOVUPS (R12), v; \
	GT(best, v, m); \
	TAKE(v, best); \
	BLENDI(m, tapi, idx); \
	ADDI(stepc, tapi); \
	ADDQ    DX, R12; \
	DECQ    BX; \
	JNZ     tap; \
	ADDI(stepr, tapi); \
	ADDQ    AX, R12; \
	DECQ    R13; \
	JNZ     row

	MOVQ    dst+0(FP), DI
	MOVQ    arg+8(FP), SI
	MOVQ    x+16(FP), R8
	MOVQ    at+24(FP), R9
	LEAQ    (R8)(R9*ESIZE), R8
	MOVQ    cv+32(FP), CX
	MOVQ    ch+40(FP), DX
	VMOVQ   DX, X9
	BCASTI(X9, Y5)
	MOVQ    kw+64(FP), AX
	IMULQ   DX, AX
	NEGQ    AX
	ADDQ    inRow+48(FP), AX
	VMOVQ   AX, X9
	BCASTI(X9, Y6)
	SHLQ    $ESHIFT, AX
	MOVQ    stride+72(FP), R14
	IMULQ   DX, R14
	SHLQ    $ESHIFT, DX
	VMOVUPS NEGINF, Y7
	VMOVDQU IOTA, Y8
	MOVQ    outW+80(FP), R10

pool_pixel:
	XORQ R11, R11

pool_wide:
	LEAQ LANES32(R11), BX
	CMPQ BX, CX
	JGT  pool_narrow
	POOL_TAPS(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, pool_wide_row, pool_wide_tap)
	VMOVUPS Y0, (DI)(R11*ESIZE)
	STOREIY((SI)(R11*4))
	ADDQ $LANES32, R11
	JMP  pool_wide

pool_narrow:
	CMPQ R11, CX
	JGE  pool_next
	POOL_TAPS(X0, X1, X2, X3, X4, X5, X6, X7, X8, pool_narrow_row, pool_narrow_tap)
	VMOVUPS X0, (DI)(R11*ESIZE)
	STOREIX((SI)(R11*4))

pool_next:
	MOVQ ch+40(FP), BX
	LEAQ (DI)(BX*ESIZE), DI
	LEAQ (SI)(BX*4), SI
	ADDQ R14, R9
	LEAQ (R8)(R14*ESIZE), R8
	DECQ R10
	JNZ  pool_pixel

#undef POOL_TAPS
