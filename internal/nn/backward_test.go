package nn

import (
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/tensor"
)

// backwardAlwaysClone is Network.Backward as it was before nodes with a
// single consumer adopted that consumer's gradient: every node gets its own
// copy of the first gradient it is sent. It is the reference the adopting
// walk is compared against.
func backwardAlwaysClone(t *testing.T, n *Network, dOut *tensor.Tensor) {
	t.Helper()
	for _, nd := range n.nodes {
		nd.grad = nil
	}
	n.nodes[n.output].grad = dOut
	for i := len(n.nodes) - 1; i >= 0; i-- {
		nd := n.nodes[i]
		if nd.grad == nil {
			continue
		}
		for j, dIn := range nd.layer.Backward(nd.grad) {
			ref := nd.inputs[j]
			if ref.isGraphInput() || dIn == nil {
				continue
			}
			if pred := n.nodes[ref]; pred.grad == nil {
				pred.grad = dIn.Clone()
			} else if err := pred.grad.AddScaled(dIn, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBackwardAdoptsGradientsBitIdentically walks a graph holding every way
// an adopted gradient could be shared — layers whose Backward returns dOut
// itself (Identity, Dropout without a mask) or a view of it (Flatten), an
// Add whose two inputs are the same node, an Add that hands one tensor to
// two different nodes, and a skip connection around a dense layer, ordered
// so that a fan-out node summing into a tensor it does not own would change
// what a later layer reads — and requires the parameter gradients of the
// always-clone walk, bit for bit, with the caller's dOut left as it was.
func TestBackwardAdoptsGradientsBitIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	net := NewNetwork([]int{3, 2})
	c0 := net.MustAdd(NewConv1D("c0", 1, 2, 2, Same, 0, rng), GraphInput(0))
	fl := net.MustAdd(NewFlatten("fl"), c0)
	d0 := net.MustAdd(NewDense("d0", 6, 5, 0, rng), fl)
	a0 := net.MustAdd(NewActivation("a0", Tanh), d0) // fans out: id, d3 and the skip
	id := net.MustAdd(NewIdentity("id"), a0)
	d1 := net.MustAdd(NewDense("d1", 5, 5, 0, rng), id)
	// d3 sits between d1 and the skip on purpose: the skip's gradient is
	// a0's first contribution and d1's dOut at once, d3 then adds to a0, and
	// only after that does d1 read its dOut — wrong if a0 had adopted it.
	d3 := net.MustAdd(NewDense("d3", 5, 5, 0, rng), a0)
	skip := net.MustAdd(NewAdd("skip"), d1, a0)
	join := net.MustAdd(NewAdd("join"), skip, d3)
	twice := net.MustAdd(NewAdd("twice"), join, join)
	dr := net.MustAdd(NewDropout("dr", 0.5, rng), twice)
	net.MustAdd(NewDense("d2", 5, 3, 0, rng), dr)

	x := randInput(rng, 4, 3, 2)
	if _, err := net.Forward([]*tensor.Tensor{x}, false); err != nil { // not training: the dropout keeps no mask
		t.Fatal(err)
	}
	dOut := randInput(rng, 4, 3)
	dOut0 := dOut.Clone()

	grads := func(walk func()) [][]float64 {
		net.ZeroGrads()
		walk()
		var gs [][]float64
		for _, p := range net.Params() {
			gs = append(gs, append([]float64(nil), p.Grad.Data...))
		}
		return gs
	}
	got := grads(func() {
		if err := net.Backward(dOut); err != nil {
			t.Fatal(err)
		}
	})
	want := grads(func() { backwardAlwaysClone(t, net, dOut) })

	for i, p := range net.Params() {
		nonzero := false
		for j, w := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(w) {
				t.Fatalf("param %d of %d (shape %v) elem %d: adopted %g, always-clone %g", i, len(want), p.W.Shape, j, got[i][j], w)
			}
			nonzero = nonzero || w != 0
		}
		if !nonzero {
			t.Errorf("param %d (shape %v): gradient is all zero, the walk never reached it", i, p.W.Shape)
		}
	}
	for i, v := range dOut0.Data {
		if math.Float64bits(dOut.Data[i]) != math.Float64bits(v) {
			t.Fatalf("Backward wrote to the caller's dOut at %d: %g, was %g", i, dOut.Data[i], v)
		}
	}
}
