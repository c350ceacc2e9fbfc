package nn

import (
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/tensor"
)

// checkGradients verifies every trainable parameter gradient and every input
// gradient of net against central finite differences of the scalar loss.
func checkGradients(t *testing.T, net *Network, loss Loss, inputs []*tensor.Tensor, targets []float64) {
	t.Helper()
	forwardLoss := func() float64 {
		pred, err := net.Forward(inputs, true)
		if err != nil {
			t.Fatal(err)
		}
		l, _ := loss.Forward(pred, targets)
		return l
	}

	// Analytic pass.
	pred, err := net.Forward(inputs, true)
	if err != nil {
		t.Fatal(err)
	}
	_, dPred := loss.Forward(pred, targets)
	net.ZeroGrads()
	if err := net.Backward(dPred); err != nil {
		t.Fatal(err)
	}
	// Capture analytic gradients before finite differences disturb state.
	analytic := map[string][]float64{}
	for _, p := range net.Params() {
		if p.Trainable() {
			analytic[p.Name] = append([]float64(nil), p.Grad.Data...)
		}
	}
	// Input gradients: rerun backward bookkeeping via a wrapper network is
	// not available, so recompute with a tracked input gradient by reusing
	// node grads. Instead, check inputs numerically against an analytic
	// input gradient obtained by attaching the inputs as parameters of an
	// identity head is overkill; we instead verify input gradients only
	// for layers that return them (validated per-layer in TestLayerInputGrads).

	const eps = 1e-5
	for _, p := range net.Params() {
		if !p.Trainable() {
			continue
		}
		ana := analytic[p.Name]
		// Sample a subset of coordinates for large tensors.
		idxs := sampleIndices(p.W.Numel(), 24)
		for _, i := range idxs {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := forwardLoss()
			p.W.Data[i] = orig - eps
			lm := forwardLoss()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if !closeGrad(ana[i], num) {
				t.Errorf("param %s[%d]: analytic %.8g numeric %.8g", p.Name, i, ana[i], num)
			}
		}
	}
}

// checkInputGradient verifies the gradient a single layer returns for its
// inputs against finite differences, using sum(output*probe) as the loss.
func checkInputGradient(t *testing.T, l Layer, ins []*tensor.Tensor) {
	t.Helper()
	shapes := make([][]int, len(ins))
	for i, in := range ins {
		shapes[i] = in.Shape[1:]
	}
	if _, err := l.OutShape(shapes); err != nil {
		t.Fatal(err)
	}
	out := l.Forward(ins, true)
	probe := tensor.New(out.Shape...)
	rng := rand.New(rand.NewSource(99))
	probe.RandNormal(rng, 1)
	lossOf := func() float64 {
		o := l.Forward(ins, true)
		s := 0.0
		for i, v := range o.Data {
			s += v * probe.Data[i]
		}
		return s
	}
	for _, p := range l.Params() {
		if p.Trainable() {
			p.Grad.Zero()
		}
	}
	dIns := l.Backward(probe)
	if len(dIns) != len(ins) {
		t.Fatalf("Backward returned %d grads for %d inputs", len(dIns), len(ins))
	}
	const eps = 1e-5
	for k, in := range ins {
		idxs := sampleIndices(in.Numel(), 20)
		for _, i := range idxs {
			orig := in.Data[i]
			in.Data[i] = orig + eps
			lp := lossOf()
			in.Data[i] = orig - eps
			lm := lossOf()
			in.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if !closeGrad(dIns[k].Data[i], num) {
				t.Errorf("input %d elem %d: analytic %.8g numeric %.8g", k, i, dIns[k].Data[i], num)
			}
		}
	}
}

func sampleIndices(n, max int) []int {
	if n <= max {
		idxs := make([]int, n)
		for i := range idxs {
			idxs[i] = i
		}
		return idxs
	}
	rng := rand.New(rand.NewSource(int64(n)))
	seen := map[int]bool{}
	var idxs []int
	for len(idxs) < max {
		i := rng.Intn(n)
		if !seen[i] {
			seen[i] = true
			idxs = append(idxs, i)
		}
	}
	return idxs
}

func closeGrad(a, n float64) bool {
	return math.Abs(a-n) <= 1e-6+1e-4*math.Max(math.Abs(a), math.Abs(n))
}

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.RandNormal(rng, 1)
	return x
}

func classTargets(rng *rand.Rand, n, k int) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = float64(rng.Intn(k))
	}
	return t
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork([]int{4})
	net.MustAdd(NewDense("d1", 4, 6, 0, rng), GraphInput(0))
	net.MustAdd(NewActivation("a1", Tanh), 0)
	net.MustAdd(NewDense("d2", 6, 3, 0.01, rng), 1)
	checkGradients(t, net, SoftmaxCrossEntropy{}, []*tensor.Tensor{randInput(rng, 5, 4)}, classTargets(rng, 5, 3))
}

func TestDenseInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	checkInputGradient(t, NewDense("d", 4, 3, 0, rng), []*tensor.Tensor{randInput(rng, 3, 4)})
}

func TestConv2DGradientsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork([]int{5, 5, 2})
	net.MustAdd(NewConv2D("c", 3, 3, 2, 3, Valid, 0, rng), GraphInput(0))
	net.MustAdd(NewFlatten("f"), 0)
	net.MustAdd(NewDense("d", 3*3*3, 2, 0, rng), 1)
	checkGradients(t, net, SoftmaxCrossEntropy{}, []*tensor.Tensor{randInput(rng, 3, 5, 5, 2)}, classTargets(rng, 3, 2))
}

func TestConv2DGradientsSame(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewNetwork([]int{4, 4, 2})
	net.MustAdd(NewConv2D("c", 3, 3, 2, 2, Same, 0.005, rng), GraphInput(0))
	net.MustAdd(NewFlatten("f"), 0)
	net.MustAdd(NewDense("d", 4*4*2, 2, 0, rng), 1)
	checkGradients(t, net, SoftmaxCrossEntropy{}, []*tensor.Tensor{randInput(rng, 2, 4, 4, 2)}, classTargets(rng, 2, 2))
}

func TestConv2DInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checkInputGradient(t, NewConv2D("c", 3, 3, 2, 3, Same, 0, rng), []*tensor.Tensor{randInput(rng, 2, 4, 4, 2)})
}

func TestConv1DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork([]int{7, 2})
	net.MustAdd(NewConv1D("c", 3, 2, 3, Valid, 0, rng), GraphInput(0))
	net.MustAdd(NewFlatten("f"), 0)
	net.MustAdd(NewDense("d", 5*3, 2, 0, rng), 1)
	checkGradients(t, net, SoftmaxCrossEntropy{}, []*tensor.Tensor{randInput(rng, 3, 7, 2)}, classTargets(rng, 3, 2))
}

func TestConv1DInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkInputGradient(t, NewConv1D("c", 3, 2, 2, Same, 0, rng), []*tensor.Tensor{randInput(rng, 2, 6, 2)})
}

func TestMaxPool2DInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	checkInputGradient(t, NewMaxPool2D("p", 2, 2), []*tensor.Tensor{randInput(rng, 2, 4, 4, 3)})
}

func TestMaxPool1DInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	checkInputGradient(t, NewMaxPool1D("p", 2, 2), []*tensor.Tensor{randInput(rng, 2, 6, 2)})
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewNetwork([]int{3, 3, 2})
	net.MustAdd(NewConv2D("c", 3, 3, 2, 2, Same, 0, rng), GraphInput(0))
	net.MustAdd(NewBatchNorm("bn", 2), 0)
	net.MustAdd(NewFlatten("f"), 1)
	net.MustAdd(NewDense("d", 3*3*2, 2, 0, rng), 2)
	checkGradients(t, net, SoftmaxCrossEntropy{}, []*tensor.Tensor{randInput(rng, 4, 3, 3, 2)}, classTargets(rng, 4, 2))
}

func TestBatchNormInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checkInputGradient(t, NewBatchNorm("bn", 3), []*tensor.Tensor{randInput(rng, 4, 2, 2, 3)})
}

func TestActivationInputGradients(t *testing.T) {
	for _, kind := range []ActKind{ReLU, Tanh, Sigmoid} {
		rng := rand.New(rand.NewSource(12 + int64(kind)))
		checkInputGradient(t, NewActivation(kind.String(), kind), []*tensor.Tensor{randInput(rng, 3, 5)})
	}
}

func TestConcatInputGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	checkInputGradient(t, NewConcat("cat"), []*tensor.Tensor{
		randInput(rng, 3, 2), randInput(rng, 3, 4), randInput(rng, 3, 1),
	})
}

func TestFlattenInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	checkInputGradient(t, NewFlatten("f"), []*tensor.Tensor{randInput(rng, 2, 3, 4)})
}

func TestMultiInputGraphGradients(t *testing.T) {
	// Mirrors the Uno-like topology: two towers concatenated into a trunk.
	rng := rand.New(rand.NewSource(17))
	net := NewNetwork([]int{3}, []int{4})
	t1 := net.MustAdd(NewDense("t1", 3, 5, 0, rng), GraphInput(0))
	t2 := net.MustAdd(NewDense("t2", 4, 5, 0, rng), GraphInput(1))
	cat := net.MustAdd(NewConcat("cat"), t1, t2)
	net.MustAdd(NewDense("head", 10, 1, 0, rng), cat)
	ins := []*tensor.Tensor{randInput(rng, 6, 3), randInput(rng, 6, 4)}
	targets := make([]float64, 6)
	for i := range targets {
		targets[i] = rng.NormFloat64()
	}
	checkGradients(t, net, MAE{}, ins, targets)
}

func TestSharedNodeGradientAccumulates(t *testing.T) {
	// A node consumed by two downstream layers must receive the sum of
	// both gradients.
	rng := rand.New(rand.NewSource(18))
	net := NewNetwork([]int{3})
	h := net.MustAdd(NewDense("h", 3, 4, 0, rng), GraphInput(0))
	a := net.MustAdd(NewDense("a", 4, 2, 0, rng), h)
	b := net.MustAdd(NewDense("b", 4, 2, 0, rng), h)
	cat := net.MustAdd(NewConcat("cat"), a, b)
	net.MustAdd(NewDense("head", 4, 2, 0, rng), cat)
	checkGradients(t, net, SoftmaxCrossEntropy{}, []*tensor.Tensor{randInput(rng, 4, 3)}, classTargets(rng, 4, 2))
}
