//go:build !purego

package tensor

// Vector bodies of the elementwise kernels (elem_amd64.s): one text per
// kernel, assembled at each element width under each register file, the
// vector width chosen by the same gemmVectorBytes as the products. A body
// covers the whole vectors of a call; the wrappers in elem.go run the
// remaining elements through the Go loops.

// adamF32 applies AdamStep's update to the first n elements of w, g, m and
// v, n a multiple of the vector's lanes; every lane does adamGo's IEEE
// operations in adamGo's order (elem_adam_amd64.h).
//
//go:noescape
func adamF32(w, grad, m, v *float32, n int, k *AdamCoefs[float32])

//go:noescape
func adamF64(w, grad, m, v *float64, n int, k *AdamCoefs[float64])

// reluF32 writes ReLU of the first n elements of x into dst: MAXPS with +0
// as the second source, which is what it returns for NaN and for ±0
// (elem_relu_amd64.h).
//
//go:noescape
func reluF32(dst, x *float32, n int)

//go:noescape
func reluF64(dst, x *float64, n int)

// reluGradF32 writes ReLUGrad of the first n elements: g's bits under the
// lane mask (0 < x), +0 elsewhere (elem_relu_grad_amd64.h).
//
//go:noescape
func reluGradF32(dst, x, grad *float32, n int)

//go:noescape
func reluGradF64(dst, x, grad *float64, n int)

// The same three at 32-byte vectors, VEX-encoded. Callable only where
// gemmVectorBytes is 32.
//
//go:noescape
func adamF32AVX2(w, grad, m, v *float32, n int, k *AdamCoefs[float32])

//go:noescape
func adamF64AVX2(w, grad, m, v *float64, n int, k *AdamCoefs[float64])

//go:noescape
func reluF32AVX2(dst, x *float32, n int)

//go:noescape
func reluF64AVX2(dst, x *float64, n int)

//go:noescape
func reluGradF32AVX2(dst, x, grad *float32, n int)

//go:noescape
func reluGradF64AVX2(dst, x, grad *float64, n int)

// vectorPart returns how many of n elements of size bytes the body in use
// covers: n rounded down to whole vectors.
func vectorPart(n, size int) int { return n &^ (gemmVectorBytes/size - 1) }

// adamBody calls its kernels directly, not through body: k usually lives on
// the caller's stack, and a pointer handed to a call through a func value
// escapes to the heap.
func adamBody[T Float](w, g, m, v []T, k *AdamCoefs[T]) int {
	switch w := any(w).(type) {
	case []float32:
		n := vectorPart(len(w), 4)
		if n == 0 {
			return 0
		}
		g, m, v, k := any(g).([]float32), any(m).([]float32), any(v).([]float32), any(k).(*AdamCoefs[float32])
		if gemmVectorBytes == 32 {
			adamF32AVX2(&w[0], &g[0], &m[0], &v[0], n, k)
		} else {
			adamF32(&w[0], &g[0], &m[0], &v[0], n, k)
		}
		return n
	case []float64:
		n := vectorPart(len(w), 8)
		if n == 0 {
			return 0
		}
		g, m, v, k := any(g).([]float64), any(m).([]float64), any(v).([]float64), any(k).(*AdamCoefs[float64])
		if gemmVectorBytes == 32 {
			adamF64AVX2(&w[0], &g[0], &m[0], &v[0], n, k)
		} else {
			adamF64(&w[0], &g[0], &m[0], &v[0], n, k)
		}
		return n
	}
	return 0
}

func reluBody[T Float](dst, x []T) int {
	switch x := any(x).(type) {
	case []float32:
		n := vectorPart(len(x), 4)
		if n > 0 {
			body(reluF32, reluF32AVX2)(&any(dst).([]float32)[0], &x[0], n)
		}
		return n
	case []float64:
		n := vectorPart(len(x), 8)
		if n > 0 {
			body(reluF64, reluF64AVX2)(&any(dst).([]float64)[0], &x[0], n)
		}
		return n
	}
	return 0
}

func reluGradBody[T Float](dst, x, g []T) int {
	switch x := any(x).(type) {
	case []float32:
		n := vectorPart(len(x), 4)
		if n > 0 {
			body(reluGradF32, reluGradF32AVX2)(&any(dst).([]float32)[0], &x[0], &any(g).([]float32)[0], n)
		}
		return n
	case []float64:
		n := vectorPart(len(x), 8)
		if n > 0 {
			body(reluGradF64, reluGradF64AVX2)(&any(dst).([]float64)[0], &x[0], &any(g).([]float64)[0], n)
		}
		return n
	}
	return 0
}
