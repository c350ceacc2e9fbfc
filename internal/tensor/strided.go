package tensor

import "swtnas/internal/obs"

// Strided products: the tile kernels' own addressing, reached directly by a
// caller that lays out its operands itself. A convolution (internal/nn)
// reads every receptive field in place through the A operand's offset
// tables — kernel rows of contiguous taps, one row of the map apart —
// instead of gathering them into a patch matrix first. Such a caller issues one
// nominal product as many calls, shards them itself and records the product
// once: StartGemm and ObserveGemm are the observation the exported products
// make per call, and GemmCost is the cost they shard by.

// GemmStrided computes, for r < len(rowAt) and j < n,
//
//	dst[r*n+j] = init[r*initStride+j] + Σ_t a[rowAt[r]+groupAt[t/tw]+(t%tw)*ats]·b[t*n+j]
//
// over t < len(groupAt)·tw, the sum taken t-ascending, one multiply and one
// add per term — the per-element order of Gemm and GemmAT, so a product
// that reads its A operand through these offsets gives their bits. Row r
// starts at offset rowAt[r]; its reduction walks groups of tw terms ats
// apart, group g at offset groupAt[g] from the row's start: a receptive
// field's kernel rows, or the output rows of a batch. A nil init starts
// every element at +0; init may be dst itself (initStride n: accumulate in
// place) or one row (initStride 0: a bias). An offset, ats or initStride
// below zero panics, as does an operand shorter than the farthest element
// the call reads; no operand is skipped, so 0·Inf is NaN. The call runs
// whole on the caller and records nothing.
func GemmStrided[T Float](dst, init []T, initStride int, a []T, rowAt, groupAt []int, tw, ats int, b []T, n int) {
	gemmTile(dst, init, initStride, a, 0, rowAt, ats, tw, groupAt, b, len(rowAt), n)
}

// GemmBTSerial is GemmBT run whole on the caller and recorded nowhere: the
// input-gradient product of a block of rows, each element the same dot
// product GemmBT computes for it whichever rows share the call.
func GemmBTSerial[T Float](dst, a, b []T, m, n, k int) {
	switch d := any(dst).(type) {
	case []float32:
		gemmBTRowsF32(d, any(a).([]float32), any(b).([]float32), 0, m, n, k)
	case []float64:
		gemmBTRowsF64(d, any(a).([]float64), any(b).([]float64), 0, m, n, k)
	}
}

// StartGemm starts the timer of one product's observation.
func StartGemm() obs.Timer { return mGemmSeconds.Start() }

// ObserveGemm records one product of nominal size m×k×n that started at t:
// one tensor.gemm.calls, 2·m·k·n tensor.gemm.flops and its latency.
func ObserveGemm(m, k, n int, t obs.Timer) { observeGemm(m, k, n, t) }

// GemmCost is the pool's cost, for parallel.MinChunk, of madds
// multiply-adds at T on the body that runs them.
func GemmCost[T Float](madds int) int {
	if DTypeFor[T]() == F64 {
		madds *= 2
	}
	return gemmCost(madds)
}
