//go:build !purego

package tensor

// SSE2 tile kernels behind the products (gemm_amd64.s). Each product makes
// one assembly call per row shard and reduction tile; the loops over rows,
// columns and the reduction index run inside the call. The packed SSE2
// multiplies and adds round each lane exactly like the scalar ops, so the
// kernels are bit-identical to the Go loops in gemm.go and gemm_f32.go —
// pinned by TestF64KernelsMatchGoTwins, TestF32KernelsMatchGoTwins and the
// two shape sweeps. SSE2 is part of the amd64 baseline (GOAMD64=v1), so
// there is no feature check; the purego build tag selects the Go loops
// instead.

// gemmTileF32 computes, for r < rows and j < n,
//
//	dst[r*n+j] = init[r*initStride+j] + Σ_t a[r*ars+t*ats]·b[t*n+j]
//
// with the sum taken t-ascending from 0 to kc-1, one multiply and one add
// per term. A nil init starts every element at +0; init may be dst itself
// (accumulate in place) or a bias row with stride 0. The (ars, ats) strides
// make one kernel serve Gemm (a row-major: k, 1) and GemmAT (a read
// transposed: 1, k).
//
//go:noescape
func gemmTileF32(dst, init *float32, initStride int, a *float32, ars, ats int, b *float32, rows, kc, n int)

// gemmTileF64 is gemmTileF32 on float64: the same body assembled with the
// packed-double instructions.
//
//go:noescape
func gemmTileF64(dst, init *float64, initStride int, a *float64, ars, ats int, b *float64, rows, kc, n int)

// gemmBTTileF32 computes dst[r*ldd+c] = a[r*n:(r+1)*n] · b[c*n:(c+1)*n] for
// r < rows and c < cols, every dot product in the lane order of dot4Go.
//
//go:noescape
func gemmBTTileF32(dst *float32, ldd int, a, b *float32, rows, cols, n int)

// gemmBTTileF64 computes the same block with every dot product one
// j-ascending sum from +0, the order of gemmBT2x4. It needs rows ≥ 4,
// cols ≥ 4 and n ≥ 1.
//
//go:noescape
func gemmBTTileF64(dst *float64, ldd int, a, b *float64, rows, cols, n int)

// tileKernel is the signature gemmTileF32 and gemmTileF64 share.
type tileKernel[T Float] func(dst, init *T, initStride int, a *T, ars, ats int, b *T, rows, kc, n int)

// The wrappers below do the one bounds check per operand that lets the
// kernels run unchecked, then walk the reduction tiles in ascending order.

func gemmRowsTile[T Float](tile tileKernel[T], dst, a, b []T, lo, hi, k, n int, bias []T) {
	if lo >= hi || n == 0 {
		return
	}
	if k == 0 {
		gemmInitRows(dst, lo, hi, n, bias)
		return
	}
	d, ar, br := dst[lo*n:hi*n], a[lo*k:hi*k], b[:k*n]
	var init *T
	if bias != nil {
		init = &bias[:n][0]
	}
	initStride := 0
	for k0 := 0; k0 < k; k0 += gemmKBlock {
		tile(&d[0], init, initStride, &ar[k0], k, 1, &br[k0*n], hi-lo, min(gemmKBlock, k-k0), n)
		init, initStride = &d[0], n
	}
}

func gemmATRowsTile[T Float](tile tileKernel[T], dst, a, b []T, lo, hi, m, k, n int) {
	if lo >= hi || n == 0 || m == 0 {
		return
	}
	d, ar, br := dst[lo*n:hi*n], a[:m*k], b[:m*n]
	for m0 := 0; m0 < m; m0 += gemmMBlock {
		tile(&d[0], &d[0], n, &ar[m0*k+lo], 1, k, &br[m0*n], hi-lo, min(gemmMBlock, m-m0), n)
	}
}

func gemmRowsF32(dst, a, b []float32, lo, hi, k, n int, bias []float32) {
	gemmRowsTile(gemmTileF32, dst, a, b, lo, hi, k, n, bias)
}

func gemmRowsF64(dst, a, b []float64, lo, hi, k, n int, bias []float64) {
	gemmRowsTile(gemmTileF64, dst, a, b, lo, hi, k, n, bias)
}

func gemmATRowsF32(dst, a, b []float32, lo, hi, m, k, n int) {
	gemmATRowsTile(gemmTileF32, dst, a, b, lo, hi, m, k, n)
}

func gemmATRowsF64(dst, a, b []float64, lo, hi, m, k, n int) {
	gemmATRowsTile(gemmTileF64, dst, a, b, lo, hi, m, k, n)
}

func gemmBTRowsF32(dst, a, b []float32, lo, hi, n, k int) {
	if lo >= hi || k == 0 {
		return
	}
	if n == 0 {
		gemmBTRowsGo(dst, a, b, lo, hi, n, k)
		return
	}
	d, ar, br := dst[lo*k:hi*k], a[lo*n:hi*n], b[:k*n]
	for k0 := 0; k0 < k; k0 += gemmKBlock {
		gemmBTTileF32(&d[k0], k, &ar[0], &br[k0*n], hi-lo, min(gemmKBlock, k-k0), n)
	}
}

func gemmBTRowsF64(dst, a, b []float64, lo, hi, n, k int) {
	if hi-lo < 4 || k < 4 || n == 0 {
		gemmBTRowsGoF64(dst, a, b, lo, hi, n, k)
		return
	}
	d, ar, br := dst[lo*k:hi*k], a[lo*n:hi*n], b[:k*n]
	for k0 := 0; k0 < k; {
		// The kernel needs four columns, so a remainder of one to three
		// rides with the last full tile.
		kc := k - k0
		if kc >= gemmKBlock+4 {
			kc = gemmKBlock
		}
		gemmBTTileF64(&d[k0], k, &ar[0], &br[k0*n], hi-lo, kc, n)
		k0 += kc
	}
}
