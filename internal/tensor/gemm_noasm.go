//go:build !amd64 || purego

package tensor

// Builds without the assembly kernels — every GOARCH but amd64, and amd64
// under the purego tag, which is how CI tests this path — run the products
// as the pure-Go loops of gemm.go and gemm_f32.go directly, and the
// elementwise kernels as the loops of elem.go: no element is covered by a
// vector body.

// gemmVectorBytes is what the tensor.gemm.vector_bytes gauge reports where
// the products are scalar Go: one float64, as on an amd64 host without
// usable AVX2. A variable only so that the _test.go hooks that write
// gemm_amd64.go's by name link on this build too.
var gemmVectorBytes = 8

func gemmRowsF32(dst, a, b []float32, lo, hi, k, n int, bias []float32) {
	gemmRowsGo(dst, a, b, lo, hi, k, n, bias)
}

func gemmBTRowsF32(dst, a, b []float32, lo, hi, n, k int) {
	gemmBTRowsGo(dst, a, b, lo, hi, n, k)
}

func gemmATRowsF32(dst, a, b []float32, lo, hi, m, k, n int) {
	gemmATRowsGo(dst, a, b, lo, hi, m, k, n)
}

func gemmRowsF64(dst, a, b []float64, lo, hi, k, n int, bias []float64) {
	gemmRowsGoF64(dst, a, b, lo, hi, k, n, bias)
}

func gemmBTRowsF64(dst, a, b []float64, lo, hi, n, k int) {
	gemmBTRowsGoF64(dst, a, b, lo, hi, n, k)
}

func gemmATRowsF64(dst, a, b []float64, lo, hi, m, k, n int) {
	gemmATRowsGoF64(dst, a, b, lo, hi, m, k, n)
}

func adamBody[T Float](w, g, m, v []T, k *AdamCoefs[T]) int { return 0 }

func reluBody[T Float](dst, x []T) int { return 0 }

func reluGradBody[T Float](dst, x, g []T) int { return 0 }

func tanhBody[T Float](dst, x []T) int { return 0 }

func sigmoidBody[T Float](dst, x []T) int { return 0 }

func expPart(n int) int { return 0 }

func gemmStrided[T Float](dst, init []T, initStride int, a []T, rowAt, groupAt []int, tw, ats int, b []T, n int) {
	gemmStridedGo(dst, init, initStride, a, rowAt, groupAt, tw, ats, b, n)
}
