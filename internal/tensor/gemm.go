package tensor

import (
	"swtnas/internal/obs"
	"swtnas/internal/parallel"
)

// Blocked GEMM primitives on flat row-major slices. One kernel family serves
// every dense product in the training stack: the Dense layer's forward and
// gradients (via MatMulInto/MatMulTInto) and the Conv1D/Conv2D layers, which
// read their receptive fields in place through GemmStrided (strided.go), the
// tile kernels' own addressing, and call GemmBT for their input gradient
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
// Each dtype has a definition in plain Go — the float64 loops at the bottom
// of this file, the float32 loops of gemm_f32.go — that pins the order in
// which every output element takes its terms, is the oracle in the tests,
// and is what runs on every GOARCH but amd64 and under the purego build tag
// (gemm_noasm.go). On amd64 the products run as tile kernels instead
// (gemm_amd64.s): one assembly call per row shard and reduction tile, a
// 4-row output tile held in vector registers across the whole tile. Gemm,
// GemmAT and GemmStrided share one kernel body (gemm_tile_amd64.h)
// instantiated at both
// element widths, gemmTileF32AVX2 and gemmTileF64AVX2; GemmBT's order
// differs per dtype, so it has a kernel per dtype (gemmBTTileF32AVX2,
// gemmBTTileF64AVX2). The kernels are AVX2, allowed or not once per process
// by CPUID (gemm_amd64.go); an amd64 host without usable AVX2 runs the Go
// loops. Packed multiplies and adds round each lane exactly like the scalar
// ones, no kernel has a fused multiply-add and Go never fuses one on amd64,
// so the kernels are bit-identical to their loops.
//
// The Go loops' block shapes are chosen empirically for Go's amd64 backend,
// which spills scalar float64 locals beyond ~8 live accumulators: a 2-row ×
// 4-column accumulator tile for Gemm, a 2×4 dot-product block for GemmBT
// (two a rows against four b rows), a 4-row fused axpy for GemmAT (one
// loaded b row updates four dst rows). A 4×4 block written in Go — 16 live
// sums plus operand temporaries — spills and measured *slower* than the
// scalar loop; the assembly holds 4×8 f64 (4×16 f32) in eight YMM
// registers because it places every value itself.
//
// Determinism contract: K-tiles are always visited in ascending order, each
// output element is written by exactly one shard, and every path adds an
// element's contributions in the same order (kk ascending for Gemm from
// bias or +0, mm ascending into dst for GemmAT, and for GemmBT j ascending
// from zero in f64, the 4-lane order of dot4Go in f32). Blocking therefore
// changes which elements are computed *together*, never the per-element
// accumulation sequence — so every kernel produces bit-identical results
// for any worker count, and the row blocking never has to align with shard
// boundaries. No path skips a zero operand: 0·b adds a signed zero and
// 0·Inf is NaN, whichever row of a shard the element lands in. GemmAT
// additionally matches the accumulation order of a serial sample-major loop
// (m ascending per output element), which keeps weight gradients
// bit-identical to the pre-GEMM direct kernels.
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
	switch d := any(dst).(type) {
	case []float32:
		a, b, bias := any(a).([]float32), any(b).([]float32), any(bias).([]float32)
		parallel.For(m, parallel.MinChunk(gemmCost(k*n)), func(lo, hi int) { gemmRowsF32(d, a, b, lo, hi, k, n, bias) })
	case []float64:
		a, b, bias := any(a).([]float64), any(b).([]float64), any(bias).([]float64)
		parallel.For(m, parallel.MinChunk(gemmCost(2*k*n)), func(lo, hi int) { gemmRowsF64(d, a, b, lo, hi, k, n, bias) })
	}
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
// takes the same per-element order through GemmStrided. It accumulates into dst, preserving the layer contract
// that Backward adds to existing gradients. Rows of dst (the k axis) are
// computed in parallel shards; each output element sums its m contributions
// in ascending tile order, matching the serial sample-major loop, so weight
// gradients are bit-identical for any worker count.
func GemmAT[T Float](dst, a, b []T, m, k, n int) {
	defer observeGemm(m, k, n, mGemmSeconds.Start())
	switch d := any(dst).(type) {
	case []float32:
		a, b := any(a).([]float32), any(b).([]float32)
		parallel.For(k, parallel.MinChunk(gemmCost(m*n)), func(lo, hi int) { gemmATRowsF32(d, a, b, lo, hi, m, k, n) })
	case []float64:
		a, b := any(a).([]float64), any(b).([]float64)
		parallel.For(k, parallel.MinChunk(gemmCost(2*m*n)), func(lo, hi int) { gemmATRowsF64(d, a, b, lo, hi, m, k, n) })
	}
}

// gemmInitRows starts rows [lo, hi) of a Gemm output at bias, or at +0.
func gemmInitRows[T Float](dst []T, lo, hi, n int, bias []T) {
	for i := lo; i < hi; i++ {
		oi := dst[i*n : (i+1)*n]
		if bias != nil {
			copy(oi, bias)
		} else {
			for j := range oi {
				oi[j] = 0
			}
		}
	}
}

// The float64 definition: plain Go loops, register-blocked. On amd64 the
// products run as assembly tile kernels instead (gemm_amd64.s) and these
// loops are the oracle they are held to — and what a GemmBT shard of fewer
// than four rows or columns runs; elsewhere, and under the purego tag, they
// are what runs (gemm_noasm.go). The float32 twin of this half of the file
// is gemm_f32.go.

// gemmRowsGoF64 computes rows [lo, hi) of dst = a·b (+bias): row pairs go
// through gemm2x4, an odd last row through the scalar loop, every element
// kk-ascending either way.
func gemmRowsGoF64(dst, a, b []float64, lo, hi, k, n int, bias []float64) {
	gemmInitRows(dst, lo, hi, n, bias)
	for k0 := 0; k0 < k; k0 += gemmKBlock {
		k1 := min(k0+gemmKBlock, k)
		i := lo
		for ; i+2 <= hi; i += 2 {
			gemm2x4(dst, a, b, i, k0, k1, k, n)
		}
		for ; i < hi; i++ {
			ai := a[i*k : (i+1)*k]
			oi := dst[i*n : (i+1)*n]
			for kk := k0; kk < k1; kk++ {
				av := ai[kk]
				br := b[kk*n : (kk+1)*n]
				for j, bv := range br {
					oi[j] += av * bv
				}
			}
		}
	}
}

// gemm2x4 applies one K-tile [k0, k1) to the two consecutive output rows
// starting at i. Columns are walked in groups of four with a 2×4 accumulator
// tile held in registers across the whole K-tile; each accumulator sums its
// kk contributions in ascending order, exactly like the scalar row loop, so
// the result does not depend on whether a row lands in this micro-kernel or
// in the remainder path. Eight accumulators plus six operand temporaries fit
// the amd64 register file; the Go compiler spills wider tiles, which run
// slower.
func gemm2x4(dst, a, b []float64, i, k0, k1, k, n int) {
	a0 := a[(i+0)*k : (i+1)*k]
	a1 := a[(i+1)*k : (i+2)*k]
	o0 := dst[(i+0)*n : (i+1)*n]
	o1 := dst[(i+1)*n : (i+2)*n]
	j := 0
	for ; j+4 <= n; j += 4 {
		c00, c01, c02, c03 := o0[j], o0[j+1], o0[j+2], o0[j+3]
		c10, c11, c12, c13 := o1[j], o1[j+1], o1[j+2], o1[j+3]
		bi := k0*n + j
		for kk := k0; kk < k1; kk++ {
			av0, av1 := a0[kk], a1[kk]
			b0, b1, b2, b3 := b[bi], b[bi+1], b[bi+2], b[bi+3]
			bi += n
			c00 += av0 * b0
			c01 += av0 * b1
			c02 += av0 * b2
			c03 += av0 * b3
			c10 += av1 * b0
			c11 += av1 * b1
			c12 += av1 * b2
			c13 += av1 * b3
		}
		o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
		o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
	}
	for ; j < n; j++ {
		c0, c1 := o0[j], o1[j]
		for kk := k0; kk < k1; kk++ {
			bv := b[kk*n+j]
			c0 += a0[kk] * bv
			c1 += a1[kk] * bv
		}
		o0[j], o1[j] = c0, c1
	}
}

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

// gemmATRowsGoF64 accumulates rows [lo, hi) of dst += aᵀ·b: row quads go
// through gemmAT4, the last one to three rows through the scalar loop,
// every element mm-ascending either way.
func gemmATRowsGoF64(dst, a, b []float64, lo, hi, m, k, n int) {
	if n == 0 {
		return
	}
	for m0 := 0; m0 < m; m0 += gemmMBlock {
		m1 := min(m0+gemmMBlock, m)
		kk := lo
		for ; kk+4 <= hi; kk += 4 {
			gemmAT4(dst, a, b, kk, m0, m1, k, n)
		}
		for ; kk < hi; kk++ {
			orow := dst[kk*n : (kk+1)*n]
			for mm := m0; mm < m1; mm++ {
				av := a[mm*k+kk]
				br := b[mm*n : (mm+1)*n]
				for j, g := range br {
					orow[j] += av * g
				}
			}
		}
	}
}

// gemmAT4 applies one m-tile [m0, m1) to the four consecutive dst rows
// starting at kk as a fused axpy: each sample's b row is loaded once and
// scaled into all four output rows, quartering b traffic versus the scalar
// loop. The four a elements per sample are contiguous (a[mm*k+kk .. +4]),
// so the strided column walk of the scalar path becomes one 4-element load.
// Samples are visited in ascending mm order — the exact per-element sequence
// of the scalar remainder loop.
func gemmAT4(dst, a, b []float64, kk, m0, m1, k, n int) {
	o0 := dst[(kk+0)*n : (kk+1)*n]
	o1 := dst[(kk+1)*n : (kk+2)*n]
	o2 := dst[(kk+2)*n : (kk+3)*n]
	o3 := dst[(kk+3)*n : (kk+4)*n]
	for mm := m0; mm < m1; mm++ {
		ar := a[mm*k+kk : mm*k+kk+4 : mm*k+kk+4]
		av0, av1, av2, av3 := ar[0], ar[1], ar[2], ar[3]
		br := b[mm*n : (mm+1)*n]
		_ = o3[len(br)-1]
		_ = o2[len(br)-1]
		_ = o1[len(br)-1]
		_ = o0[len(br)-1]
		for j, g := range br {
			o0[j] += av0 * g
			o1[j] += av1 * g
			o2[j] += av2 * g
			o3[j] += av3 * g
		}
	}
}
