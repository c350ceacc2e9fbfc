package nn

import (
	"math/rand"
	"testing"

	"swtnas/internal/tensor"
)

// buildArenaNet builds a 3-conv network (conv → relu → conv → maxpool →
// conv → gap → dense) whose conv layers have different patch-matrix sizes.
func buildArenaNet(t *testing.T, seed int64) (*Network, []*Conv2D) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := NewNetwork([]int{9, 9, 4})
	c1 := NewConv2D("c1", 3, 3, 4, 8, Same, 0, rng)
	c2 := NewConv2D("c2", 3, 3, 8, 8, Same, 0, rng)
	c3 := NewConv2D("c3", 3, 3, 8, 4, Same, 0, rng)
	h := net.MustAdd(c1, GraphInput(0))
	h = net.MustAdd(NewActivation("r1", ReLU), h)
	h = net.MustAdd(c2, h)
	h = net.MustAdd(NewMaxPool2D("mp", 2, 2), h)
	h = net.MustAdd(c3, h)
	h = net.MustAdd(NewGlobalAvgPool("gap"), h)
	net.MustAdd(NewDense("d", 4, 3, 0, rng), h)
	return net, []*Conv2D{c1, c2, c3}
}

// runArenaNet does one forward/backward on a seeded batch and returns the
// output, the loss-side gradient it propagated, and a flat copy of every
// parameter gradient.
func runArenaNet(t *testing.T, net *Network, batch int) (*tensor.Tensor, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(101))
	x := tensor.New(batch, 9, 9, 4)
	x.RandNormal(rng, 1)
	out, err := net.Forward([]*tensor.Tensor{x}, true)
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.New(out.Shape...)
	g.RandNormal(rng, 1)
	if err := net.Backward(g); err != nil {
		t.Fatal(err)
	}
	var grads []float64
	for _, p := range net.Params() {
		if p.Grad != nil {
			grads = append(grads, p.Grad.Data...)
		}
	}
	return out, grads
}

// TestConvRetainsNoPatchMatrix asserts the memory claim of the in-place
// lowering: after a training step no conv layer retains a buffer the size
// of its patch matrix (batch × outH·outW × KH·KW·InC elements), a
// patch-gradient block holds at most max(outH·outW, blockRows) rows of
// KH·KW·InC whatever the batch, and what the convolutions retain beyond
// their output and input gradient — zero-bordered inputs, blocks, offset
// tables — is less than the two patch matrices of the largest layer an
// im2col lowering keeps. The batch makes every layer's patch matrix larger
// than a block.
func TestConvRetainsNoPatchMatrix(t *testing.T) {
	net, convs := buildArenaNet(t, 7)
	const batch = 8
	runArenaNet(t, net, batch)
	var aux, largest int
	for _, c := range convs {
		patches := batch * c.outH * c.outW * c.kdim()
		largest = max(largest, patches)
		for i, s := range c.slots {
			if cap(s.Data) >= patches {
				t.Errorf("conv %q slot %d holds %d elements, a patch matrix is %d", c.Name(), i, cap(s.Data), patches)
			}
			if block := max(c.outH*c.outW, blockRows) * c.kdim(); i > slotAux && cap(s.Data) > block {
				t.Errorf("conv %q block %d holds %d elements, more than %d", c.Name(), i, cap(s.Data), block)
			}
			if i >= slotAux {
				aux += cap(s.Data)
			}
		}
		aux += cap(c.index)
	}
	if aux >= 2*largest {
		t.Errorf("convolutions retain %d elements beyond output and input gradient, im2col's two matrices are %d", aux, 2*largest)
	}
	if aux == 0 {
		t.Fatal("no conv retained a tap map or a block: the step did not run the lowering under test")
	}
}

// TestConvArenaRecomputeAfterInterleavedForward covers the interleaving a
// network produces: a deeper conv's Forward between a shallower conv's
// Forward and Backward must leave the shallower conv's gradients exact —
// its Backward reads the taps its own Forward left, never another layer's.
func TestConvArenaRecomputeAfterInterleavedForward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c1 := NewConv1D("c1", 3, 2, 4, Same, 0, rng)
	c2 := NewConv1D("c2", 3, 4, 4, Same, 0, rng)
	if _, err := c1.OutShape([][]int{{16, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.OutShape([][]int{{16, 4}}); err != nil {
		t.Fatal(err)
	}

	x := tensor.New(2, 16, 2)
	x.RandNormal(rng, 1)
	h := c1.Forward([]*tensor.Tensor{x}, true)
	c2.Forward([]*tensor.Tensor{h}, true)
	g := tensor.New(2, 16, 4)
	g.RandNormal(rng, 1)
	d1 := c1.Backward(g)[0]
	gotDW := append([]float64(nil), c1.W.Grad.Data...)

	// Control: an identical layer, same forward input and backward
	// gradient, no interleaved Forward.
	rng2 := rand.New(rand.NewSource(9))
	ctrl := NewConv1D("c1", 3, 2, 4, Same, 0, rng2)
	if _, err := ctrl.OutShape([][]int{{16, 2}}); err != nil {
		t.Fatal(err)
	}
	ctrl.Forward([]*tensor.Tensor{x}, true)
	wantDIn := ctrl.Backward(g)[0]
	if d := maxAbsDiff(gotDW, ctrl.W.Grad.Data); d != 0 {
		t.Errorf("weight gradient after an interleaved Forward differs by %g (must be bit-identical)", d)
	}
	if d := maxAbsDiff(d1.Data, wantDIn.Data); d != 0 {
		t.Errorf("input gradient after an interleaved Forward differs by %g (must be bit-identical)", d)
	}
}
