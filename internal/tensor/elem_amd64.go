//go:build !purego

package tensor

import "math"

// Vector bodies of the elementwise kernels (elem_amd64.s): one AVX2 text
// per kernel, assembled at each element width, and run where the products
// run theirs (gemmVectorBytes is 32). A body covers the whole vectors of a
// call; the wrappers in elem.go run the remaining elements through the Go
// loops.

// adamF32AVX2 applies AdamStep's update to the first n elements of w, g, m
// and v, n a multiple of the vector's lanes; every lane does adamGo's IEEE
// operations in adamGo's order (elem_adam_amd64.h).
//
//go:noescape
func adamF32AVX2(w, grad, m, v *float32, n int, k *AdamCoefs[float32])

//go:noescape
func adamF64AVX2(w, grad, m, v *float64, n int, k *AdamCoefs[float64])

// reluF32AVX2 writes ReLU of the first n elements of x into dst: VMAXPS
// with +0 as the second source, which is what it returns for NaN and for ±0
// (elem_relu_amd64.h).
//
//go:noescape
func reluF32AVX2(dst, x *float32, n int)

//go:noescape
func reluF64AVX2(dst, x *float64, n int)

// reluGradF32AVX2 writes ReLUGrad of the first n elements: g's bits under
// the lane mask (0 < x), +0 elsewhere (elem_relu_grad_amd64.h).
//
//go:noescape
func reluGradF32AVX2(dst, x, grad *float32, n int)

//go:noescape
func reluGradF64AVX2(dst, x, grad *float64, n int)

// tanhF32AVX2 writes Tanh of the first n elements of x into dst, n a
// multiple of four: each lane widened to float64, both of math.Tanh's
// branches computed, the one its argument takes blended in, and the result
// narrowed back (elem_tanh_amd64.h). Callable only where expPart is not 0.
//
//go:noescape
func tanhF32AVX2(dst, x *float32, n int)

//go:noescape
func tanhF64AVX2(dst, x *float64, n int)

// sigmoidF32AVX2 writes Sigmoid of the first n elements of x into dst, n a
// multiple of four, and returns how many it wrote: all n, or up to the first
// vector with a lane off math.Exp's normal path, which it leaves unwritten
// (elem_sigmoid_amd64.h). Callable only where expPart is not 0.
//
//go:noescape
func sigmoidF32AVX2(dst, x *float32, n int) int

//go:noescape
func sigmoidF64AVX2(dst, x *float64, n int) int

// expBodies is whether the Tanh and Sigmoid bodies may run on this host:
// they run math.Exp's FMA sequence (archExp in the math package, lane for
// lane), so they need the instructions and a math.Exp that takes that
// sequence itself (expFused). Set once, here.
var expBodies = func() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	return expFused && ecx1&cpuidFMA != 0
}()

const cpuidFMA = 1 << 12 // CPUID.1:ECX

// expLanes is the number of elements of one Tanh or Sigmoid vector: four
// float64 lanes of a YMM register, at either dtype.
const expLanes = 4

// expPart returns how many of n elements the Tanh and Sigmoid bodies cover:
// n rounded down to whole vectors where they may run — where the other
// bodies do, and expBodies — and 0 elsewhere.
func expPart(n int) int {
	if gemmVectorBytes != 32 || !expBodies {
		return 0
	}
	return n &^ (expLanes - 1)
}

// expConsts are the constants of the Tanh and Sigmoid bodies, one 32-byte
// row each with every lane equal, so that an instruction takes a row as its
// memory operand; elem_exp_amd64.h names the rows. The floats are the math
// package's literals: archExp's (exp_amd64.s) and tanh's (tanh.go).
var expConsts = func() (rows [26][4]uint64) {
	for i, v := range []uint64{
		math.Float64bits(1.4426950408889634073599246810018920),                  // LOG2E
		math.Float64bits(0.69314718055966295651160180568695068359375),           // LN2U
		math.Float64bits(0.28235290563031577122588448175013436025525412068e-12), // LN2L
		math.Float64bits(0.0625),
		math.Float64bits(2.4801587301587301587e-5), // the Taylor coefficients, Horner order
		math.Float64bits(1.9841269841269841270e-4),
		math.Float64bits(1.3888888888888888889e-3),
		math.Float64bits(8.3333333333333333333e-3),
		math.Float64bits(4.1666666666666666667e-2),
		math.Float64bits(1.6666666666666666667e-1),
		math.Float64bits(0.5),
		math.Float64bits(1.0),
		math.Float64bits(2.0),
		1023,                                                 // the exponent bias, int64 lanes
		0xFFFFFC01_FFFFFC01,                                  // −1023 in int32 lanes: k must exceed it …
		0x000003FF_000003FF,                                  // … and not exceed 1023 (a biased exponent in (0, 0x7FF))
		1<<63 - 1,                                            // |x|
		1 << 63,                                              // the sign bit
		math.Float64bits(0.625),                              // tanh's branch point
		math.Float64bits(0.5 * 8.8029691931113054295988e+01), // 0.5·MAXLOG
		math.Float64bits(-9.64399179425052238628e-1),         // tanhP
		math.Float64bits(-9.92877231001918586564e1),
		math.Float64bits(-1.61468768441708447952e3),
		math.Float64bits(1.12811678491632931402e2), // tanhQ
		math.Float64bits(2.23548839060100448583e3),
		math.Float64bits(4.84406305325125486048e3),
	} {
		rows[i] = [4]uint64{v, v, v, v}
	}
	return rows
}()

// vectorPart returns how many of n elements of size bytes the bodies
// cover: n rounded down to whole 32-byte vectors where they run, and 0
// where the Go loops take every element.
func vectorPart(n, size int) int {
	if gemmVectorBytes != 32 {
		return 0
	}
	return n &^ (32/size - 1)
}

func adamBody[T Float](w, g, m, v []T, k *AdamCoefs[T]) int {
	switch w := any(w).(type) {
	case []float32:
		n := vectorPart(len(w), 4)
		if n == 0 {
			return 0
		}
		g, m, v, k := any(g).([]float32), any(m).([]float32), any(v).([]float32), any(k).(*AdamCoefs[float32])
		adamF32AVX2(&w[0], &g[0], &m[0], &v[0], n, k)
		return n
	case []float64:
		n := vectorPart(len(w), 8)
		if n == 0 {
			return 0
		}
		g, m, v, k := any(g).([]float64), any(m).([]float64), any(v).([]float64), any(k).(*AdamCoefs[float64])
		adamF64AVX2(&w[0], &g[0], &m[0], &v[0], n, k)
		return n
	}
	return 0
}

func reluBody[T Float](dst, x []T) int {
	switch x := any(x).(type) {
	case []float32:
		n := vectorPart(len(x), 4)
		if n > 0 {
			reluF32AVX2(&any(dst).([]float32)[0], &x[0], n)
		}
		return n
	case []float64:
		n := vectorPart(len(x), 8)
		if n > 0 {
			reluF64AVX2(&any(dst).([]float64)[0], &x[0], n)
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
			reluGradF32AVX2(&any(dst).([]float32)[0], &x[0], &any(g).([]float32)[0], n)
		}
		return n
	case []float64:
		n := vectorPart(len(x), 8)
		if n > 0 {
			reluGradF64AVX2(&any(dst).([]float64)[0], &x[0], &any(g).([]float64)[0], n)
		}
		return n
	}
	return 0
}

func tanhBody[T Float](dst, x []T) int {
	n := expPart(len(x))
	if n == 0 {
		return 0
	}
	switch x := any(x).(type) {
	case []float32:
		tanhF32AVX2(&any(dst).([]float32)[0], &x[0], n)
	case []float64:
		tanhF64AVX2(&any(dst).([]float64)[0], &x[0], n)
	}
	return n
}

// sigmoidBody covers the whole vectors of a call: the body writes them up
// to one with a lane off math.Exp's normal path, that vector's elements take
// the Go loop, and the body resumes after it.
func sigmoidBody[T Float](dst, x []T) int {
	n := expPart(len(x))
	for i := 0; i < n; {
		switch x := any(x[i:n]).(type) {
		case []float32:
			i += sigmoidF32AVX2(&any(dst).([]float32)[i], &x[0], len(x))
		case []float64:
			i += sigmoidF64AVX2(&any(dst).([]float64)[i], &x[0], len(x))
		}
		if i < n {
			sigmoidGo(dst[i:i+expLanes], x[i:i+expLanes])
			i += expLanes
		}
	}
	return n
}

// dropoutF32AVX2 runs Dropout over the first n elements, n a multiple of the
// lanes, with draws pointing at the Stream's next draw and the 607 before it
// in place: it writes each vector's draws, stops before the first vector
// with a draw Float64 redraws, keeps an element whose draw's low 63 bits
// reach thr, and returns how many elements it wrote (elem_dropout_amd64.h).
//
//go:noescape
func dropoutF32AVX2(out, mask, x *float32, n int, keep float32, thr uint64, draws *uint64) int

//go:noescape
func dropoutF64AVX2(out, mask, x *float64, n int, keep float64, thr uint64, draws *uint64) int

// mulF32AVX2 writes a·b of the first n elements into dst, one VMULPS a
// lane (elem_mul_amd64.h).
//
//go:noescape
func mulF32AVX2(dst, a, b *float32, n int)

//go:noescape
func mulF64AVX2(dst, a, b *float64, n int)

// dropoutBody covers the whole vectors of a Dropout call, whole, in
// windows of the Stream's buffer, and returns how many elements it wrote:
// whole, or fewer where the next draw is one Float64 redraws.
func dropoutBody[T Float](out, mask, x []T, keep T, rate float64, s *Stream) (done, whole int) {
	size := DTypeFor[T]().Size()
	whole = vectorPart(len(x), size)
	if whole == 0 {
		return 0, 0
	}
	thr, lanes := dropThreshold(rate), 32/size
	for done < whole {
		w := s.window(lanes)
		n := min(whole-done, len(w)-streamLong) &^ (lanes - 1)
		var k int
		switch x := any(x[done:]).(type) {
		case []float32:
			k = dropoutF32AVX2(&any(out).([]float32)[done], &any(mask).([]float32)[done], &x[0], n,
				any(keep).(float32), thr, &w[streamLong])
		case []float64:
			k = dropoutF64AVX2(&any(out).([]float64)[done], &any(mask).([]float64)[done], &x[0], n,
				any(keep).(float64), thr, &w[streamLong])
		}
		done += k
		s.pos += k
		if k < n {
			break
		}
	}
	return done, whole
}

func mulBody[T Float](dst, a, b []T) int {
	switch a := any(a).(type) {
	case []float32:
		n := vectorPart(len(a), 4)
		if n > 0 {
			mulF32AVX2(&any(dst).([]float32)[0], &a[0], &any(b).([]float32)[0], n)
		}
		return n
	case []float64:
		n := vectorPart(len(a), 8)
		if n > 0 {
			mulF64AVX2(&any(dst).([]float64)[0], &a[0], &any(b).([]float64)[0], n)
		}
		return n
	}
	return 0
}
