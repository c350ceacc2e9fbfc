//go:build !amd64 || purego

package tensor

// Builds without the assembly kernels — every GOARCH but amd64, and amd64
// under the purego tag, which is how CI tests this path — run the products
// as the Go definitions of gemm.go and gemm_f32.go, the elementwise
// kernels as the loops of elem.go and dropout.go, the max-pool rows as
// maxPoolRowGo and the byte-plane split and join as the loops of planes.go:
// no tile, element or channel is covered by a vector body.

// gemmVectorBytes is what the tensor.gemm.vector_bytes gauge reports where
// the products are scalar Go: one float64, as on an amd64 host without
// usable AVX2. A variable only so that the _test.go hooks that write
// gemm_amd64.go's by name link on this build too.
var gemmVectorBytes = 8

func gemmBTRowsF32(dst, a, b []float32, lo, hi, n, k int) {
	gemmBTRowsGo(dst, a, b, lo, hi, n, k)
}

func gemmBTRowsF64(dst, a, b []float64, lo, hi, n, k int) {
	gemmBTRowsGoF64(dst, a, b, lo, hi, n, k)
}

func tileBody[T Float](dst, init *T, initStride int, a *T, ars int, rowAt *int, ats, tw int, groups *int, b *T, rows, kc, n int) bool {
	return false
}

func adamBody[T Float](w, g, m, v []T, k *AdamCoefs[T]) int { return 0 }

func reluBody[T Float](dst, x []T) int { return 0 }

func reluGradBody[T Float](dst, x, g []T) int { return 0 }

func tanhBody[T Float](dst, x []T) int { return 0 }

func sigmoidBody[T Float](dst, x []T) int { return 0 }

func expPart(n int) int { return 0 }

func maxPoolBody[T Float](dst []T, arg []int32, x []T, at, ch, inRow, kh, kw, stride int) int {
	return 0
}

func splitBody(low, planes []byte, stride int, src []byte, width int) int { return 0 }

func joinBody(dst, low, planes []byte, stride, width int) int { return 0 }

func dropoutBody[T Float](out, mask, x []T, keep T, rate float64, s *Stream) (done, whole int) {
	return 0, 0
}

func mulBody[T Float](dst, a, b []T) int { return 0 }
