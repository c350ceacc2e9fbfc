package nn

import (
	"math/rand"
	"testing"

	"swtnas/internal/tensor"
)

// buildArenaNet builds a 3-conv network (conv → relu → conv → maxpool →
// conv → gap → dense) whose conv layers have different patch-matrix sizes,
// so the shared patch matrices must fit the largest and the recompute path
// runs for the two shallower convs during backward.
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

// TestConvArenaSharedAndDepthIndependent asserts the memory claim of
// convColsOf: every conv layer of a network shares the network's ONE pair of
// patch matrices, and after a training step cols/dcols are sized for the
// largest layer's patch matrix — not the sum over layers — so patch memory
// is depth-independent.
func TestConvArenaSharedAndDepthIndependent(t *testing.T) {
	net, convs := buildArenaNet(t, 7)
	var sum, max int
	for _, c := range convs {
		if c.cols != &net.cols {
			t.Errorf("conv %q has private patch matrices, want the network's shared ones", c.Name())
		}
		per := c.outH * c.outW * c.kdim()
		sum += per
		if per > max {
			max = per
		}
	}
	if net.cols.perSample != max {
		t.Errorf("shared perSample = %d, want max layer patch size %d", net.cols.perSample, max)
	}

	const batch = 3
	runArenaNet(t, net, batch)
	cols, dcols := net.cols.slots[0].Data, net.cols.slots[1].Data
	if got, want := cap(cols), batch*max; got != want {
		t.Errorf("cols capacity = %d, want batch*maxPerSample = %d (depth-independent)", got, want)
	}
	if got, want := cap(dcols), batch*max; got != want {
		t.Errorf("dcols capacity = %d, want batch*maxPerSample = %d (depth-independent)", got, want)
	}
	if batch*sum <= batch*max {
		t.Fatal("test network must have more than one conv layer for the depth claim to mean anything")
	}
	// cols and dcols must be distinct allocations: forward patches (read by
	// the weight-gradient GEMM) and backward patch gradients coexist within
	// one Backward call.
	if &cols[0] == &dcols[0] {
		t.Error("cols and dcols alias the same backing array")
	}
}

// TestConvArenaMatchesPrivateBuffers asserts that sharing scratch does not
// change a single bit of any output or gradient: the same seeded network run
// with the shared matrices and with per-layer private ones must agree
// exactly, including the weight gradients computed from
// re-gathered patches on the recompute path.
func TestConvArenaMatchesPrivateBuffers(t *testing.T) {
	shared, _ := buildArenaNet(t, 7)
	private, privConvs := buildArenaNet(t, 7)
	for _, c := range privConvs {
		c.cols = nil // Forward lazily makes private matrices per layer
	}

	outS, gradsS := runArenaNet(t, shared, 3)
	outP, gradsP := runArenaNet(t, private, 3)

	if d := maxAbsDiff(outS.Data, outP.Data); d != 0 {
		t.Errorf("shared-arena forward differs from private buffers by %g (must be bit-identical)", d)
	}
	if len(gradsS) != len(gradsP) {
		t.Fatalf("gradient count mismatch: %d vs %d", len(gradsS), len(gradsP))
	}
	if d := maxAbsDiff(gradsS, gradsP); d != 0 {
		t.Errorf("shared-arena gradients differ from private buffers by %g (must be bit-identical)", d)
	}

	// The private nets really did use separate matrices (one pair per conv).
	seen := map[*convColsOf[float64]]bool{}
	for _, c := range privConvs {
		if c.cols == nil {
			t.Fatalf("conv %q never made its private patch matrices", c.Name())
		}
		if seen[c.cols] {
			t.Fatalf("private control run unexpectedly shares patch matrices")
		}
		seen[c.cols] = true
	}
}

// TestConvArenaRecomputeAfterInterleavedForward covers the owner-tracking
// edge: a second Forward of a deeper conv invalidates a shallower conv's
// patches, so its Backward must re-gather them from the cached input rather
// than computing weight gradients from another layer's patch rows.
func TestConvArenaRecomputeAfterInterleavedForward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := &convColsOf[float64]{}
	c1 := NewConv1D("c1", 3, 2, 4, Same, 0, rng)
	c2 := NewConv1D("c2", 3, 4, 4, Same, 0, rng)
	if _, err := c1.OutShape([][]int{{16, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.OutShape([][]int{{16, 4}}); err != nil {
		t.Fatal(err)
	}
	c1.setCols(a)
	c2.setCols(a)

	x := tensor.New(2, 16, 2)
	x.RandNormal(rng, 1)
	h := c1.Forward([]*tensor.Tensor{x}, true)
	c2.Forward([]*tensor.Tensor{h}, true) // overwrites c1's patches
	g := tensor.New(2, 16, 4)
	g.RandNormal(rng, 1)
	d1 := c1.Backward(g)[0]
	gotDW := append([]float64(nil), c1.W.Grad.Data...)

	// Control: identical layer with its own matrices, same forward input and
	// backward gradient, no interleaved overwrite.
	rng2 := rand.New(rand.NewSource(9))
	ctrl := NewConv1D("c1", 3, 2, 4, Same, 0, rng2)
	if _, err := ctrl.OutShape([][]int{{16, 2}}); err != nil {
		t.Fatal(err)
	}
	ctrl.Forward([]*tensor.Tensor{x}, true)
	wantDIn := ctrl.Backward(g)[0]
	if d := maxAbsDiff(gotDW, ctrl.W.Grad.Data); d != 0 {
		t.Errorf("weight gradient after patch recompute differs by %g (must be bit-identical)", d)
	}
	if d := maxAbsDiff(d1.Data, wantDIn.Data); d != 0 {
		t.Errorf("input gradient after patch recompute differs by %g (must be bit-identical)", d)
	}
}
