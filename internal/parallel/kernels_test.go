package parallel_test

import (
	"math/rand"
	"testing"

	"swtnas/internal/nn"
	"swtnas/internal/obs"
	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// splitAndKept runs f at two workers and the production grain, and returns
// how many of its sharded loops split and how many ran whole on the caller.
func splitAndKept(f func()) (split, kept int64) {
	defer parallel.SetWorkers(parallel.SetWorkers(2))
	defer obs.SetEnabled(obs.SetEnabled(true))
	calls, inline := obs.GetCounter("parallel.for.calls"), obs.GetCounter("parallel.for.inline")
	split, kept = calls.Value(), inline.Value()
	f()
	return calls.Value() - split, inline.Value() - kept
}

// TestGrainSplitsMillisecondKernels is the control on the grain from both
// sides, on the shapes of the root package's *Parallel benchmarks: the calls
// that take a millisecond or more on one core — where BenchmarkForBreakEven
// says a second core pays — still split at two workers, and the batch-1 and
// skinny calls that the handoff used to make slower run whole.
func TestGrainSplitsMillisecondKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv2d := func(batch int) func() {
		c := nn.NewConv2D("cv", 3, 3, 8, 16, nn.Same, 0, rng)
		if _, err := c.OutShape([][]int{{16, 16, 8}}); err != nil {
			t.Fatal(err)
		}
		x := tensor.New(batch, 16, 16, 8)
		return func() { c.Backward(c.Forward([]*tensor.Tensor{x}, true)) }
	}
	conv1d := func() {
		c := nn.NewConv1D("cv", 5, 1, 20, nn.Same, 0, rng)
		if _, err := c.OutShape([][]int{{256, 1}}); err != nil {
			t.Fatal(err)
		}
		x := tensor.New(32, 256, 1)
		c.Backward(c.Forward([]*tensor.Tensor{x}, true))
	}
	act := tensor.New(64, 16, 16, 32)
	for _, c := range []struct {
		name      string
		run       func()
		wantSplit int64 // sharded loops that must split; the rest must not
	}{
		// The forward, the weight gradient and the input gradient.
		{"Conv2D batch 64", conv2d(64), 3},
		{"MatMul 256x512x256", func() {
			if err := tensor.MatMulInto(tensor.New(256, 256), tensor.New(256, 512), tensor.New(512, 256), nil); err != nil {
				t.Fatal(err)
			}
		}, 1},
		// Two blocked reductions and the normalize pass forward, one
		// reduction and the input gradient backward.
		{"BatchNorm 64x16x16x32", func() {
			bn := nn.NewBatchNorm("bn", 32)
			if _, err := bn.OutShape([][]int{{16, 16, 32}}); err != nil {
				t.Fatal(err)
			}
			bn.Backward(bn.Forward([]*tensor.Tensor{act}, true))
		}, 5},
		// Both passes stay whole: the forward runs its taps through the
		// vector row body (costVector, 0.3–0.6 ms here), and the gradient
		// scatter, 0.3–0.6 ms over 131072 outputs, is at the grain exactly.
		{"MaxPool2D 64x16x16x32", func() {
			p := nn.NewMaxPool2D("mp", 2, 2)
			if _, err := p.OutShape([][]int{{16, 16, 32}}); err != nil {
				t.Fatal(err)
			}
			p.Backward(p.Forward([]*tensor.Tensor{act}, true))
		}, 0},
		{"Conv2D batch 1", conv2d(1), 0},
		{"Conv1D 32x256x1, 20 filters", conv1d, 0},
	} {
		split, kept := splitAndKept(c.run)
		if split != c.wantSplit || (c.wantSplit == 0 && kept == 0) {
			t.Errorf("%s: %d sharded loops split and %d ran whole, want %d split", c.name, split, kept, c.wantSplit)
		}
	}
}
