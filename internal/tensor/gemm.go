package tensor

import (
	"swtnas/internal/obs"
	"swtnas/internal/parallel"
)

// Blocked GEMM primitives on flat row-major slices. One kernel family serves
// every dense product in the training stack: the Dense layer's forward and
// gradients (via MatMulInto/MatMulTInto) and the Conv1D/Conv2D layers, which
// read their receptive fields in place through GemmStrided (strided.go), the
// tile's own addressing, and call GemmBT for their input gradient
// (internal/nn). Sharing the kernels means the cache tiling and the
// row-parallel execution below serve convolution and fully connected layers
// alike. Output rows are the unit of sharding, and a product splits only
// when each shard would hold at least the pool's grain of work (gemmCost):
// under the AVX2 kernels a row costs k·n/2 units in f32 and twice that in
// f64, whose multiply-add measures twice as long, so at two workers a
// product splits from about 8 M multiply-adds in f32 and 4 M in f64; under
// the Go loops a row costs twice the units and the thresholds halve — which
// the skinny conv products of a cifar10/mnist search mostly are not either
// way.
//
// Two levels of blocking (see DESIGN.md "Kernel architecture"):
//
//   - K-tiling: the reduction dimension is cut into gemmKBlock tiles so one
//     tile of the B operand stays hot in cache while every row of a shard
//     consumes it.
//   - Register blocking: inside each K-tile a block of output elements is
//     computed together, the accumulators held in registers across the whole
//     tile so one operand load feeds several multiply-adds.
//
// Gemm, GemmAT and GemmStrided are one operation, the tile (gemmTile): for
// r < rows and j < n,
//
//	dst[r*n+j] = init[r*initStride+j] + Σ_t a[r*ars+rowAt[r]+groups[t/tw]+(t%tw)*ats]·b[t*n+j]
//
// the sum taken t-ascending from init or +0, one rounding per multiply and
// per add. Gemm walks K-tiles reading a row-major (ars k, ats 1), GemmAT
// walks m-tiles reading a transposed (ars 1, ats k), and GemmStrided is one
// tile whose rows and groups start at the offsets of its tables.
// gemmTileGo is the tile's one definition in Go: the oracle in the tests,
// and what runs on every GOARCH but amd64, under the purego build tag
// (gemm_noasm.go) and on an amd64 host without usable AVX2. Elsewhere the
// tile is one assembly body (gemm_tile_amd64.h) instantiated at both
// element widths, gemmTileF32AVX2 and gemmTileF64AVX2, a 4-row output tile
// held in vector registers across the whole reduction tile; whether it may
// run is decided once per process by CPUID (gemm_amd64.go). Packed
// multiplies and adds round each lane exactly like the scalar ones, no
// kernel has a fused multiply-add and Go never fuses one on amd64, so the
// two bodies give the same bits. GemmBT's dot-product order differs per
// dtype — j-ascending from zero in f64 (the loops at the bottom of this
// file), the 4-lane order of dot4Go in f32 (gemm_f32.go) — so it has a Go
// loop and a kernel per dtype.
//
// Determinism contract: reduction tiles are always visited in ascending
// order, each output element is written by exactly one shard, and every
// path adds an element's contributions in the same order (kk ascending for
// Gemm from bias or +0, mm ascending into dst for GemmAT, and for GemmBT j
// ascending from zero in f64, the 4-lane order of dot4Go in f32). Blocking
// therefore changes which elements are computed *together*, never the
// per-element accumulation sequence — so every kernel produces
// bit-identical results for any worker count, and the row blocking never
// has to align with shard boundaries. No path skips a zero operand: 0·b
// adds a signed zero and 0·Inf is NaN, whichever row of a shard the element
// lands in. GemmAT additionally matches the accumulation order of a serial
// sample-major loop (m ascending per output element), which keeps weight
// gradients bit-identical to the pre-GEMM direct kernels.
//
// The contract holds independently *per dtype* (pinned for f64 by
// TestGemmKernelsDeterministicAcrossWorkers, TestGemmF64ShapeSweep and
// TestF64KernelsMatchGoTwins, for f32 by TestGemmParallelMatchesSerialF32,
// TestGemmF32ShapeSweep and TestF32KernelsMatchGoTwins); f32 and f64
// results agree only to f32 rounding. Mixed-dtype products do not exist: a
// network is entirely one element type.

const (
	// gemmKBlock tiles the reduction dimension of Gemm: one tile of the B
	// operand (gemmKBlock x n rows) stays hot in cache while every row of
	// the shard consumes it.
	gemmKBlock = 240
	// gemmMBlock tiles the reduction dimension of GemmAT (the sample-major
	// m axis) the same way.
	gemmMBlock = 240
)

// GEMM telemetry (internal/obs, disabled by default): one counter pair and
// one latency histogram shared by all three kernels, at call granularity —
// the per-call cost when disabled is three atomic loads, invisible next to
// even the smallest GEMM. FLOPs are 2·m·k·n multiply-adds, nominal and
// executed alike: no kernel skips an operand.
var (
	mGemmCalls   = obs.GetCounter("tensor.gemm.calls")
	mGemmFlops   = obs.GetCounter("tensor.gemm.flops")
	mGemmSeconds = obs.GetHistogram("tensor.gemm.seconds", obs.DurationBuckets)
	// Which body produced the series above: 32 for the AVX2 kernels, 8 for
	// the Go loops. Two runs' GFLOP/s compare only when this agrees.
	mGemmVectorBytes = obs.GetGauge("tensor.gemm.vector_bytes")
)

// observeGemm records one kernel call of nominal size 2·m·k·n.
func observeGemm(m, k, n int, t obs.Timer) {
	t.Stop()
	mGemmCalls.Inc()
	mGemmFlops.Add(2 * int64(m) * int64(k) * int64(n))
	mGemmVectorBytes.Set(int64(gemmVectorBytes))
}

// gemmCost states one output row's multiply-adds — madds of f32, passed
// doubled for f64 — in the pool's unit, two f32 multiply-adds of the AVX2
// kernels. The Go loops are charged a unit per multiply-add.
func gemmCost(madds int) int {
	if gemmVectorBytes == 32 {
		return madds / 2
	}
	return madds
}

// Gemm computes dst = a·b for a [m, k], b [k, n], dst [m, n], all flat
// row-major. When bias is non-nil it must have length n and initializes
// every output row; otherwise rows start at zero. Rows of dst are computed
// in parallel shards; the reduction over k runs in ascending tile order
// inside each row, so the result is bit-identical for any worker count.
// Every operand is multiplied — a zero element of a is not skipped, so
// 0·Inf is NaN as IEEE says — at either width.
func Gemm[T Float](dst, a, b []T, m, k, n int, bias []T) {
	defer observeGemm(m, k, n, mGemmSeconds.Start())
	parallel.For(m, parallel.MinChunk(GemmCost[T](k*n)), func(lo, hi int) { gemmRows(dst, a, b, lo, hi, k, n, bias) })
}

// GemmBT computes dst = a·bᵀ for a [m, n], b [k, n], dst [m, k] — the
// input-gradient product (dIn = dOut·Wᵀ) of the dense layer, and (as
// GemmBTSerial) of the convolutions' patch-gradient blocks. The output columns are tiled so one tile of b
// is reused by every row of a shard; every dot product runs in its dtype's
// pinned order (j-ascending from zero in f64, the lane order of dot4Go in
// f32) whichever rows share a block, so results are bit-identical for any
// worker count.
func GemmBT[T Float](dst, a, b []T, m, n, k int) {
	defer observeGemm(m, k, n, mGemmSeconds.Start())
	switch d := any(dst).(type) {
	case []float32:
		a, b := any(a).([]float32), any(b).([]float32)
		parallel.For(m, parallel.MinChunk(gemmCost(k*n)), func(lo, hi int) { gemmBTRowsF32(d, a, b, lo, hi, n, k) })
	case []float64:
		a, b := any(a).([]float64), any(b).([]float64)
		parallel.For(m, parallel.MinChunk(gemmCost(2*k*n)), func(lo, hi int) { gemmBTRowsF64(d, a, b, lo, hi, n, k) })
	}
}

// GemmAT computes dst += aᵀ·b for a [m, k], b [m, n], dst [k, n] — the
// weight-gradient product of a dense layer (dW += Xᵀ·dOut); a convolution
// takes the same per-element order through GemmStrided. It accumulates into
// dst, preserving the layer contract that Backward adds to existing
// gradients. Rows of dst (the k axis) are computed in parallel shards; each
// output element sums its m contributions in ascending tile order, matching
// the serial sample-major loop, so weight gradients are bit-identical for
// any worker count.
func GemmAT[T Float](dst, a, b []T, m, k, n int) {
	defer observeGemm(m, k, n, mGemmSeconds.Start())
	parallel.For(k, parallel.MinChunk(GemmCost[T](m*n)), func(lo, hi int) { gemmATRows(dst, a, b, lo, hi, m, k, n) })
}

// oneGroup is the group table of a reduction that is one run of terms.
var oneGroup = []int{0}

// gemmRows computes rows [lo, hi) of dst = a·b (+bias), one tile per K-tile
// in ascending order: the first starts from bias or +0 — and is the only
// one, with no term, when k is 0 — and each later one from dst.
func gemmRows[T Float](dst, a, b []T, lo, hi, k, n int, bias []T) {
	d, init, initStride := dst[lo*n:], bias, 0
	for k0 := 0; k0 == 0 || k0 < k; k0 += gemmKBlock {
		kc := min(gemmKBlock, k-k0)
		gemmTile(d, init, initStride, a[lo*k+k0:], k, nil, 1, kc, oneGroup, b[k0*n:], hi-lo, n)
		init, initStride = d, n
	}
}

// gemmATRows accumulates rows [lo, hi) of dst += aᵀ·b, one tile per m-tile
// in ascending order, each reading a transposed.
func gemmATRows[T Float](dst, a, b []T, lo, hi, m, k, n int) {
	d := dst[lo*n:]
	for m0 := 0; m0 < m; m0 += gemmMBlock {
		mc := min(gemmMBlock, m-m0)
		gemmTile(d, d, n, a[m0*k+lo:], 1, nil, k, mc, oneGroup, b[m0*n:], hi-lo, n)
	}
}

// gemmTile computes one tile (the formula at the top of this file) of
// kc = len(groups)·tw terms on the body gemmVectorBytes names. It makes the
// one bounds check per operand that lets the kernels run unchecked: a
// negative stride or offset panics, and so does an operand shorter than the
// farthest element the tile reads. With kc ≤ 0 there is no term: the tile
// writes init or +0, reading neither a nor b. A nil rowAt adds 0 to every
// row.
func gemmTile[T Float](dst, init []T, initStride int, a []T, ars int, rowAt []int, ats, tw int, groups []int, b []T, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	if initStride < 0 || ars < 0 || ats < 0 {
		panic("tensor: GEMM stride below zero")
	}
	dst = dst[:rows*n]
	if init != nil {
		init = init[:(rows-1)*initStride+n]
	}
	if rowAt != nil {
		rowAt = rowAt[:rows]
	}
	kc := len(groups) * tw
	if kc <= 0 {
		kc, tw, groups = 0, 1, oneGroup
	} else {
		a = a[:(rows-1)*ars+farthest(rowAt)+farthest(groups)+(tw-1)*ats+1]
		b = b[:kc*n]
	}
	if !tileBody(&dst[0], first(init), initStride, first(a), ars, first(rowAt), ats, tw, &groups[0], first(b), rows, kc, n) {
		gemmTileGo(dst, init, initStride, a, ars, rowAt, ats, tw, groups, b, rows, kc, n)
	}
}

// first is the address of s[0], or nil when s is empty: the kernel argument
// of an operand the tile does not read may be nil, never dereferenced.
func first[E any](s []E) *E {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

// farthest is the largest offset of a table, which holds none below zero.
func farthest(at []int) int {
	far := 0
	for _, o := range at {
		if o < 0 {
			panic("tensor: GEMM offset below zero")
		}
		far = max(far, o)
	}
	return far
}

// gemmTileGo is the tile's definition: row by row, each row's terms taken
// group by group, four at a time where a group has four left, every
// element's sum t-ascending.
func gemmTileGo[T Float](dst, init []T, initStride int, a []T, ars int, rowAt []int, ats, tw int, groups []int, b []T, rows, kc, n int) {
	groups = groups[:kc/tw]
	for r := 0; r < rows; r++ {
		o := dst[r*n : (r+1)*n]
		if init == nil {
			clear(o)
		} else {
			copy(o, init[r*initStride:r*initStride+n])
		}
		row := r * ars
		if rowAt != nil {
			row += rowAt[r]
		}
		bt := b
		for _, g := range groups {
			at, i := row+g, 0
			for ; i+4 <= tw; i += 4 {
				axpy4(o, bt[:n], bt[n:2*n], bt[2*n:3*n], bt[3*n:4*n], a[at], a[at+ats], a[at+2*ats], a[at+3*ats])
				at, bt = at+4*ats, bt[4*n:]
			}
			for ; i < tw; i++ {
				av := a[at]
				for j, bv := range bt[:n] {
					o[j] += av * bv
				}
				at, bt = at+ats, bt[n:]
			}
		}
	}
}

// axpy4 adds four scaled rows into dst, the terms left to right per
// element.
func axpy4[T Float](dst, b0, b1, b2, b3 []T, a0, a1, a2, a3 T) {
	b0, b1, b2, b3 = b0[:len(dst)], b1[:len(dst)], b2[:len(dst)], b3[:len(dst)]
	for j := range dst {
		v := dst[j]
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		dst[j] = v
	}
}

// The f64 GemmBT loops: a shard of fewer than four rows or columns runs
// them on an AVX2 host too (gemm_amd64.go). The f32 ones are gemm_f32.go's.

// gemmBTRowsGoF64 computes rows [lo, hi) of dst = a·bᵀ: row pairs go
// through gemmBT2x4, an odd last row through the scalar loop, every dot
// product j-ascending from zero either way.
func gemmBTRowsGoF64(dst, a, b []float64, lo, hi, n, k int) {
	for k0 := 0; k0 < k; k0 += gemmKBlock {
		k1 := min(k0+gemmKBlock, k)
		i := lo
		for ; i+2 <= hi; i += 2 {
			gemmBT2x4(dst, a, b, i, k0, k1, n, k)
		}
		for ; i < hi; i++ {
			ai := a[i*n : (i+1)*n]
			oi := dst[i*k : (i+1)*k]
			for kk := k0; kk < k1; kk++ {
				br := b[kk*n : (kk+1)*n]
				var s float64
				for j, g := range ai {
					s += g * br[j]
				}
				oi[kk] = s
			}
		}
	}
}

// gemmBT2x4 computes the [i, i+2) × [k0, k1) block of dst = a·bᵀ. Two rows
// of a and four rows of b are walked together over the shared j axis,
// accumulating eight dot products in registers — each loaded a element feeds
// four products and each loaded b element two. Every dot product is the same
// j-ascending sum the scalar path computes, so the two paths agree
// bit-for-bit.
func gemmBT2x4(dst, a, b []float64, i, k0, k1, n, k int) {
	a0 := a[(i+0)*n : (i+1)*n]
	a1 := a[(i+1)*n : (i+2)*n]
	o0 := dst[(i+0)*k : (i+1)*k]
	o1 := dst[(i+1)*k : (i+2)*k]
	kk := k0
	for ; kk+4 <= k1; kk += 4 {
		b0 := b[(kk+0)*n : (kk+1)*n]
		b1 := b[(kk+1)*n : (kk+2)*n]
		b2 := b[(kk+2)*n : (kk+3)*n]
		b3 := b[(kk+3)*n : (kk+4)*n]
		var c00, c01, c02, c03 float64
		var c10, c11, c12, c13 float64
		for j, g0 := range a0 {
			g1 := a1[j]
			w0, w1, w2, w3 := b0[j], b1[j], b2[j], b3[j]
			c00 += g0 * w0
			c01 += g0 * w1
			c02 += g0 * w2
			c03 += g0 * w3
			c10 += g1 * w0
			c11 += g1 * w1
			c12 += g1 * w2
			c13 += g1 * w3
		}
		o0[kk], o0[kk+1], o0[kk+2], o0[kk+3] = c00, c01, c02, c03
		o1[kk], o1[kk+1], o1[kk+2], o1[kk+3] = c10, c11, c12, c13
	}
	for ; kk < k1; kk++ {
		br := b[kk*n : (kk+1)*n]
		var c0, c1 float64
		for j, w := range br {
			c0 += a0[j] * w
			c1 += a1[j] * w
		}
		o0[kk], o1[kk] = c0, c1
	}
}
