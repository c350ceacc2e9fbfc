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
// place) or one row (initStride 0: a bias). Offsets and ats are
// non-negative; no operand is skipped, so 0·Inf is NaN. The call runs whole
// on the caller and records nothing.
func GemmStrided[T Float](dst, init []T, initStride int, a []T, rowAt, groupAt []int, tw, ats int, b []T, n int) {
	rows := len(rowAt)
	if rows == 0 || n <= 0 {
		return
	}
	// One bounds check per operand: the kernels run unchecked.
	dst = dst[:rows*n]
	if init != nil {
		init = init[:(rows-1)*initStride+n]
	}
	if len(groupAt) == 0 || tw <= 0 {
		gemmStridedGo(dst, init, initStride, a, rowAt, nil, 0, ats, b, n)
		return
	}
	a = a[:farthest(rowAt)+farthest(groupAt)+(tw-1)*ats+1]
	b = b[:len(groupAt)*tw*n]
	gemmStrided(dst, init, initStride, a, rowAt, groupAt, tw, ats, b, n)
}

// farthest is the largest offset of a table, which holds none below zero.
func farthest(at []int) int {
	far := 0
	for _, o := range at {
		if o < 0 {
			panic("tensor: GemmStrided offset below zero")
		}
		far = max(far, o)
	}
	return far
}

// gemmStridedGo is GemmStrided's definition: the scalar loop, element by
// element in the order the contract states. It is what runs where the
// products run the Go loops.
func gemmStridedGo[T Float](dst, init []T, initStride int, a []T, rowAt, groupAt []int, tw, ats int, b []T, n int) {
	for r, at := range rowAt {
		o := dst[r*n : (r+1)*n]
		if init == nil {
			clear(o)
		} else {
			copy(o, init[r*initStride:r*initStride+n])
		}
		for t := 0; t < len(groupAt)*tw; t++ {
			av := a[at+groupAt[t/tw]+t%tw*ats]
			for j, bv := range b[t*n : (t+1)*n] {
				o[j] += av * bv
			}
		}
	}
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
