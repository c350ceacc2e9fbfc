package nn

import (
	"math"

	"swtnas/internal/tensor"
)

// Optimizer updates trainable parameters from their accumulated gradients.
type OptimizerOf[T tensor.Float] interface {
	// Step applies one update and leaves gradients untouched (callers
	// zero them via Network.ZeroGrads before the next accumulation).
	Step(params []*ParamOf[T])
}

type adamState[T tensor.Float] struct {
	m, v []T
}

// Adam implements Kingma & Ba's optimizer with the paper's hyper-parameters
// as defaults: lr=0.001, β₁=0.9, β₂=0.999, ε=1e-7 (Section VII-A).
// L2 regularization declared on a parameter is added to its gradient before
// the moment update, matching a Keras kernel_regularizer.
type AdamOf[T tensor.Float] struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	state                 map[*ParamOf[T]]*adamState[T]
}

// NewAdam returns a float64 Adam optimizer with the paper's settings.
func NewAdam() *Adam { return NewAdamOf[float64]() }

// NewAdamOf returns an Adam optimizer for the given element type with the
// paper's settings. Hyper-parameters stay float64; only the moment vectors
// and the per-element update run in T.
func NewAdamOf[T tensor.Float]() *AdamOf[T] {
	return &AdamOf[T]{LR: 0.001, Beta1: 0.9, Beta2: 0.999, Eps: 1e-7, state: map[*ParamOf[T]]*adamState[T]{}}
}

// Step applies one Adam update to every trainable parameter: one
// tensor.AdamStep call per parameter, the per-element arithmetic and its
// order defined there.
func (a *AdamOf[T]) Step(params []*ParamOf[T]) {
	a.t++
	k := tensor.AdamCoefs[T]{
		B1: T(a.Beta1), OB1: T(1 - a.Beta1), B2: T(a.Beta2), OB2: T(1 - a.Beta2),
		C1: T(1 - math.Pow(a.Beta1, float64(a.t))), C2: T(1 - math.Pow(a.Beta2, float64(a.t))),
		LR: T(a.LR), Eps: T(a.Eps),
	}
	for _, p := range params {
		if !p.Trainable() {
			continue
		}
		st, ok := a.state[p]
		if !ok {
			st = &adamState[T]{m: make([]T, p.W.Numel()), v: make([]T, p.W.Numel())}
			a.state[p] = st
		}
		k.L2x2, k.L2 = T(2*p.L2), p.L2 != 0
		tensor.AdamStep(p.W.Data, p.Grad.Data, st.m, st.v, &k)
	}
}
