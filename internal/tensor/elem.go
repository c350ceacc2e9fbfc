package tensor

import "math"

// Elementwise kernels: the Adam update, both ReLU passes and the Tanh and
// Sigmoid forward passes, the largest per-step costs of a training step
// after the products. The Go loops at the bottom are the definition, and
// what runs on every GOARCH but amd64, under the purego build tag, and over
// the last elements of a call that do not fill a vector. On amd64 the rest
// runs as one AVX2 body per kernel and dtype (elem_amd64.s), where the
// GEMMs' gemmVectorBytes says the AVX2 kernels run; TestElemBodiesMatchGo
// and FuzzElementwise hold each body to these loops bit for bit. Every lane
// of a body does its loop's IEEE operations in their order — no reciprocal,
// and no fused multiply-add except where math.Exp itself fuses: the Tanh and
// Sigmoid bodies run Exp's FMA sequence lane for lane, and only where
// expFused says math.Exp takes that sequence.

// AdamCoefs are the scalars of one Adam update in the parameter's element
// type. The moments and the weight are updated per element as
//
//	gi    = g + L2x2·w          (only when L2 is set)
//	m     = B1·m + OB1·gi
//	v     = B2·v + (OB2·gi)·gi
//	w     = w − (LR·(m/C1)) / (sqrt(v/C2) + Eps)
//
// L2 is a flag, not L2x2 ≠ 0: a coefficient that rounds to zero in float32
// still adds 0·w, which is NaN where w is infinite.
type AdamCoefs[T Float] struct {
	B1, OB1, B2, OB2 T // β₁, 1−β₁, β₂, 1−β₂
	C1, C2           T // the bias corrections 1−β₁ᵗ and 1−β₂ᵗ
	LR, Eps          T
	L2x2             T // twice the parameter's L2 coefficient
	L2               bool
}

// AdamStep applies one Adam update to w in place, with g its gradient and m,
// v its first and second moments (updated in place); g, m and v are at least
// as long as w.
func AdamStep[T Float](w, g, m, v []T, k *AdamCoefs[T]) {
	n := len(w)
	g, m, v = g[:n], m[:n], v[:n]
	i := adamBody(w, g, m, v, k)
	adamGo(w[i:], g[i:], m[i:], v[i:], k)
}

// ReLU writes max(x, 0) into dst: x where x > 0, else +0 — for −0 and NaN
// too. dst is at least as long as x.
func ReLU[T Float](dst, x []T) {
	dst = dst[:len(x)]
	i := reluBody(dst, x)
	reluGo(dst[i:], x[i:])
}

// ReLUGrad writes ReLU's input gradient into dst: g where x > 0, else +0.
// dst and g are at least as long as x.
func ReLUGrad[T Float](dst, x, g []T) {
	dst, g = dst[:len(x)], g[:len(x)]
	i := reluGradBody(dst, x, g)
	reluGradGo(dst[i:], x[i:], g[i:])
}

// Tanh writes T(math.Tanh(float64(v))) into dst for each v of x. dst is at
// least as long as x.
func Tanh[T Float](dst, x []T) {
	dst = dst[:len(x)]
	i := tanhBody(dst, x)
	tanhGo(dst[i:], x[i:])
}

// Sigmoid writes T(1 / (1 + math.Exp(float64(-v)))) into dst for each v of
// x. dst is at least as long as x.
func Sigmoid[T Float](dst, x []T) {
	dst = dst[:len(x)]
	i := sigmoidBody(dst, x)
	sigmoidGo(dst[i:], x[i:])
}

// expFused reports whether math.Exp rounds as its fused multiply-add
// sequence does: the amd64 math package runs it where the CPU has FMA,
// unless GODEBUG=cpu.fma=off, and an unfused sequence otherwise. The probe
// is three arguments on which the two sequences differ, against the fused
// results. The Tanh and Sigmoid bodies run only where it holds, and the
// search digests were recorded where it holds.
var expFused = math.Exp(0.8497425325589525) == 2.3390445465784064 &&
	math.Exp(-3.069843025532003) == 0.04642844236548021 &&
	math.Exp(-8.913371177229802) == 0.00013457738419050315

// adamGo is the definition of AdamStep.
func adamGo[T Float](w, g, m, v []T, k *AdamCoefs[T]) {
	b1, ob1, b2, ob2 := k.B1, k.OB1, k.B2, k.OB2
	c1, c2, lr, eps, l2x2 := k.C1, k.C2, k.LR, k.Eps, k.L2x2
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i := range w {
		gi := g[i]
		if k.L2 {
			gi += T(l2x2 * w[i])
		}
		m[i] = T(b1*m[i]) + T(ob1*gi)
		v[i] = T(b2*v[i]) + T(ob2*gi*gi)
		mHat := m[i] / c1
		vHat := v[i] / c2
		w[i] -= lr * mHat / (T(math.Sqrt(float64(vHat))) + eps)
	}
}

// reluGo is the definition of ReLU.
func reluGo[T Float](dst, x []T) {
	dst = dst[:len(x)]
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// reluGradGo is the definition of ReLUGrad.
func reluGradGo[T Float](dst, x, g []T) {
	dst, g = dst[:len(x)], g[:len(x)]
	for i, v := range x {
		if v > 0 {
			dst[i] = g[i]
		} else {
			dst[i] = 0
		}
	}
}

// tanhGo is the definition of Tanh.
func tanhGo[T Float](dst, x []T) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = T(math.Tanh(float64(v)))
	}
}

// sigmoidGo is the definition of Sigmoid.
func sigmoidGo[T Float](dst, x []T) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = T(1 / (1 + math.Exp(float64(-v))))
	}
}
