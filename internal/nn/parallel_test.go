package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// runConv2D builds a fresh seeded Conv2D and runs one forward/backward,
// returning output, input gradient, weight gradient and bias gradient.
func runConv2D(t *testing.T, b int) (*tensor.Tensor, *tensor.Tensor, []float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	c := NewConv2D("cv", 3, 3, 4, 8, Same, 0, rng)
	if _, err := c.OutShape([][]int{{9, 9, 4}}); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(b, 9, 9, 4)
	x.RandNormal(rng, 1)
	out := c.Forward([]*tensor.Tensor{x}, true)
	g := tensor.New(out.Shape...)
	g.RandNormal(rng, 1)
	dIn := c.Backward(g)[0]
	return out, dIn, c.W.Grad.Data, c.B.Grad.Data
}

// runConv2DWide is runConv2D with 32 input channels, so the receptive field
// (3*3*32 = 288 taps) is longer than the GEMM k-block and the backward's
// GemmBT is tiled, not just a single tile.
func runConv2DWide(t *testing.T, b int) (*tensor.Tensor, *tensor.Tensor, []float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	c := NewConv2D("cv", 3, 3, 32, 6, Same, 0, rng)
	if _, err := c.OutShape([][]int{{6, 6, 32}}); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(b, 6, 6, 32)
	x.RandNormal(rng, 1)
	out := c.Forward([]*tensor.Tensor{x}, true)
	g := tensor.New(out.Shape...)
	g.RandNormal(rng, 1)
	dIn := c.Backward(g)[0]
	return out, dIn, c.W.Grad.Data, c.B.Grad.Data
}

// runConv1D is runConv2D for the NT3-shaped 1-D kernel.
func runConv1D(t *testing.T, b int) (*tensor.Tensor, *tensor.Tensor, []float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	c := NewConv1D("cv", 5, 2, 6, Same, 0, rng)
	if _, err := c.OutShape([][]int{{32, 2}}); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(b, 32, 2)
	x.RandNormal(rng, 1)
	out := c.Forward([]*tensor.Tensor{x}, true)
	g := tensor.New(out.Shape...)
	g.RandNormal(rng, 1)
	dIn := c.Backward(g)[0]
	return out, dIn, c.W.Grad.Data, c.B.Grad.Data
}

// runDense is runConv2D for the fully connected kernel.
func runDense(t *testing.T, b int) (*tensor.Tensor, *tensor.Tensor, []float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	d := NewDense("d", 37, 19, 0, rng)
	x := tensor.New(b, 37)
	x.RandNormal(rng, 1)
	out := d.Forward([]*tensor.Tensor{x}, true)
	g := tensor.New(out.Shape...)
	g.RandNormal(rng, 1)
	dIn := d.Backward(g)[0]
	return out, dIn, d.W.Grad.Data, d.B.Grad.Data
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestParallelKernelsMatchSerial asserts the determinism contract of the
// parallel kernels: with any worker count, outputs and input gradients are
// bit-identical to the serial (workers=1) run, and weight/bias gradients
// agree within 1e-12. (The GEMM kernels fix the reduction order, so in
// practice the whole comparison is bit-identical; the 1e-12 bound is the
// documented contract.) Batch 1 matters since the convolution shards output
// positions, tap rows and input rows within a sample — the
// serial-vs-parallel agreement must hold even when there is only one sample
// to shard. These shapes are far under the pool's grain, so the grain is
// lowered and each parallel leg must report that its sharded loops split: a
// convolution's forward (output positions), weight gradient (tap rows) and
// input gradient (input rows), except that a 1-D one's input gradient,
// sharded over the rows of a height-1 map, cannot split a batch of 1; of a
// Dense layer the three GEMMs, or at batch 1 only the weight gradient (one
// output row cannot split).
func TestParallelKernelsMatchSerial(t *testing.T) {
	kernels := []struct {
		name           string
		run            func(t *testing.T, b int) (*tensor.Tensor, *tensor.Tensor, []float64, []float64)
		split1, splitN int64 // loops that split at batch 1 and at batch 37
	}{
		{"Conv2D", runConv2D, 3, 3},
		{"Conv2DWide", runConv2DWide, 3, 3},
		{"Conv1D", runConv1D, 2, 3},
		{"Dense", runDense, 1, 3},
	}
	splitEverything(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, k := range kernels {
		for _, batch := range []int{1, 37} { // 37 is odd so shards are uneven
			t.Run(fmt.Sprintf("%s/batch=%d", k.name, batch), func(t *testing.T) {
				parallel.SetWorkers(1)
				out0, dIn0, dw0, db0 := k.run(t, batch)
				dw0 = append([]float64(nil), dw0...)
				db0 = append([]float64(nil), db0...)
				want := k.splitN
				if batch == 1 {
					want = k.split1
				}
				for _, workers := range []int{2, 4, 7} {
					parallel.SetWorkers(workers)
					var out, dIn *tensor.Tensor
					var dw, db []float64
					if split, _ := splitCalls(func() { out, dIn, dw, db = k.run(t, batch) }); split != want {
						t.Fatalf("workers=%d: %d loops split, want %d: the parallel leg did not run", workers, split, want)
					}
					if d := maxAbsDiff(out.Data, out0.Data); d != 0 {
						t.Errorf("workers=%d: forward differs from serial by %g (must be bit-identical)", workers, d)
					}
					if d := maxAbsDiff(dIn.Data, dIn0.Data); d != 0 {
						t.Errorf("workers=%d: input gradient differs from serial by %g (must be bit-identical)", workers, d)
					}
					if d := maxAbsDiff(dw, dw0); d > 1e-12 {
						t.Errorf("workers=%d: weight gradient differs from serial by %g > 1e-12", workers, d)
					}
					if d := maxAbsDiff(db, db0); d > 1e-12 {
						t.Errorf("workers=%d: bias gradient differs from serial by %g > 1e-12", workers, d)
					}
				}
			})
		}
	}
}

// TestParallelActivationsMatchSerial extends the determinism contract to the
// sharded element-wise activations: forward outputs and input gradients must
// be bit-identical to the serial run for any worker count. The tensor has an
// odd element count so the shards are uneven, the grain is lowered so that
// it splits at all (both passes must report they did), and each kind covers
// both branches of its piecewise form.
func TestParallelActivationsMatchSerial(t *testing.T) {
	kinds := []ActKind{ReLU, Tanh, Sigmoid}
	splitEverything(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			run := func() (*tensor.Tensor, *tensor.Tensor) {
				rng := rand.New(rand.NewSource(21))
				a := NewActivation("act", kind)
				x := tensor.New(7, 941) // 6587 elements: uneven shards
				x.RandNormal(rng, 2)    // spread across both sides of zero
				out := a.Forward([]*tensor.Tensor{x}, true)
				g := tensor.New(out.Shape...)
				g.RandNormal(rng, 1)
				dIn := a.Backward(g)[0]
				return out, dIn
			}
			parallel.SetWorkers(1)
			out0, dIn0 := run()
			for _, workers := range []int{2, 4, 7} {
				parallel.SetWorkers(workers)
				var out, dIn *tensor.Tensor
				if split, _ := splitCalls(func() { out, dIn = run() }); split != 2 {
					t.Fatalf("workers=%d: %d of 2 passes split: the parallel leg did not run", workers, split)
				}
				if d := maxAbsDiff(out.Data, out0.Data); d != 0 {
					t.Errorf("workers=%d: forward differs from serial by %g (must be bit-identical)", workers, d)
				}
				if d := maxAbsDiff(dIn.Data, dIn0.Data); d != 0 {
					t.Errorf("workers=%d: input gradient differs from serial by %g (must be bit-identical)", workers, d)
				}
			}
		})
	}
}

// TestParallelSoftmaxCrossEntropyMatchesSerial checks loss and gradient
// across worker counts: gradients are per-row (bit-identical), the scalar
// loss is a per-shard reduction (1e-12).
func TestParallelSoftmaxCrossEntropyMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	b, k := 129, 10
	pred := tensor.New(b, k)
	pred.RandNormal(rng, 3)
	targets := make([]float64, b)
	for i := range targets {
		targets[i] = float64(rng.Intn(k))
	}
	splitEverything(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	loss0, grad0 := SoftmaxCrossEntropy{}.Forward(pred, targets)
	for _, workers := range []int{2, 5, 8} {
		parallel.SetWorkers(workers)
		var loss float64
		var grad *tensor.Tensor
		if split, _ := splitCalls(func() { loss, grad = SoftmaxCrossEntropy{}.Forward(pred, targets) }); split != 1 {
			t.Fatalf("workers=%d: the loss ran as one shard: the parallel leg did not run", workers)
		}
		if math.Abs(loss-loss0) > 1e-12 {
			t.Errorf("workers=%d: loss %v differs from serial %v", workers, loss, loss0)
		}
		if d := maxAbsDiff(grad.Data, grad0.Data); d != 0 {
			t.Errorf("workers=%d: gradient differs from serial by %g (must be bit-identical)", workers, d)
		}
	}
}

// TestParallelGatherMatchesSerial covers the sharded row gather in the fit
// loop.
func TestParallelGatherMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	in := tensor.New(500, 200)
	in.RandNormal(rng, 1)
	targets := make([]float64, 500)
	for i := range targets {
		targets[i] = float64(i)
	}
	d := &Data{Inputs: []*tensor.Tensor{in}, Targets: targets}
	idx := rng.Perm(500)
	splitEverything(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	serial := d.Gather(idx)
	parallel.SetWorkers(6)
	var par *Data
	if split, _ := splitCalls(func() { par = d.Gather(idx) }); split != 1 {
		t.Fatal("the gather ran as one shard: the parallel leg did not run")
	}
	if d := maxAbsDiff(par.Inputs[0].Data, serial.Inputs[0].Data); d != 0 {
		t.Fatalf("parallel gather differs from serial by %g", d)
	}
	for i := range serial.Targets {
		if par.Targets[i] != serial.Targets[i] {
			t.Fatalf("target %d differs", i)
		}
	}
}

// TestPoolCountersConserveCalls is the conservation law behind the pool's
// idle signal: how many For* calls a piece of work makes does not depend on
// the grain, only how they divide between split (parallel.for.calls) and
// kept whole (parallel.for.inline) does. The same layers run at the
// production grain, where shapes this small all stay on the caller, and at
// the lowered one, where all but the single-item loops split.
func TestPoolCountersConserveCalls(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(2))
	work := func() {
		runConv2D(t, 3)
		runDense(t, 1)
		runBatchNorm(t, 9)
		runPool2D(t, NewMaxPool2D("mp", 3, 2), 1)
	}
	split0, kept0 := splitCalls(work)
	splitEverything(t)
	split1, kept1 := splitCalls(work)
	if split0 != 0 || split1 == 0 || split0+kept0 != split1+kept1 {
		t.Fatalf("production grain: %d split + %d kept; lowered: %d split + %d kept; want 0 split, then some, and equal sums",
			split0, kept0, split1, kept1)
	}
}

// gradcheckLayer finite-differences a few weight entries of a layer under a
// 1/2·‖out‖² loss and compares them against the analytic Backward gradient.
func gradcheckLayer(t *testing.T, forward func() *tensor.Tensor, backward func(g *tensor.Tensor), w, dw []float64) {
	t.Helper()
	lossOf := func() float64 {
		out := forward()
		s := 0.0
		for _, v := range out.Data {
			s += v * v / 2
		}
		return s
	}
	backward(forward().Clone())
	const eps = 1e-5
	for _, pi := range []int{0, 7, len(w) / 2, len(w) - 1} {
		orig := w[pi]
		w[pi] = orig + eps
		up := lossOf()
		w[pi] = orig - eps
		down := lossOf()
		w[pi] = orig
		numeric := (up - down) / (2 * eps)
		analytic := dw[pi]
		if math.Abs(analytic-numeric) > 1e-6+1e-4*math.Max(math.Abs(analytic), math.Abs(numeric)) {
			t.Errorf("W[%d]: analytic %v vs numeric %v", pi, analytic, numeric)
		}
	}
}

// TestGradcheckUnderParallelKernels re-runs conv gradient checks at
// workers=4 so the parallel code paths — not just the serial fallback —
// are verified against finite differences.
func TestGradcheckUnderParallelKernels(t *testing.T) {
	splitEverything(t)
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(16))
	c := NewConv1D("cv", 3, 2, 3, Same, 0, rng)
	if _, err := c.OutShape([][]int{{8, 2}}); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(6, 8, 2)
	x.RandNormal(rng, 1)
	allSplit(t, func() {
		gradcheckLayer(t,
			func() *tensor.Tensor { return c.Forward([]*tensor.Tensor{x}, true) },
			func(g *tensor.Tensor) {
				c.W.Grad.Zero()
				c.B.Grad.Zero()
				c.Backward(g)
			},
			c.W.W.Data, c.W.Grad.Data)
	})
}

// TestGradcheckConv2DIm2col gradchecks the Conv2D backward with a
// channel count whose receptive field (3*3*32 = 288 taps) crosses the GEMM
// k-block, so the strided weight gradient and the tiled GemmBT/col2im path —
// not just a single tile — are verified against finite differences.
func TestGradcheckConv2DIm2col(t *testing.T) {
	splitEverything(t)
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(17))
	c := NewConv2D("cv", 3, 3, 32, 2, Same, 0, rng)
	if _, err := c.OutShape([][]int{{4, 4, 32}}); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 4, 4, 32)
	x.RandNormal(rng, 1)
	allSplit(t, func() {
		gradcheckLayer(t,
			func() *tensor.Tensor { return c.Forward([]*tensor.Tensor{x}, true) },
			func(g *tensor.Tensor) {
				c.W.Grad.Zero()
				c.B.Grad.Zero()
				c.Backward(g)
			},
			c.W.W.Data, c.W.Grad.Data)
	})
}

// runBatchNorm builds a fresh seeded BatchNorm over conv-shaped activations
// and runs training forward, backward, and an inference forward (which uses
// the running stats the training pass just wrote).
func runBatchNorm(t *testing.T, b int) (out, inf, dIn *tensor.Tensor, dGamma, dBeta []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	bn := NewBatchNorm("bn", 6)
	if _, err := bn.OutShape([][]int{{5, 7, 6}}); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(b, 5, 7, 6)
	x.RandNormal(rng, 1)
	out = bn.Forward([]*tensor.Tensor{x}, true)
	g := tensor.New(out.Shape...)
	g.RandNormal(rng, 1)
	dIn = bn.Backward(g)[0]
	inf = bn.Forward([]*tensor.Tensor{x}, false)
	return out, inf, dIn, bn.Gamma.Grad.Data, bn.Beta.Grad.Data
}

// TestParallelBatchNormMatchesSerial pins the determinism contract on the
// sharded BatchNorm: training forward, inference forward and input gradient
// must be bit-identical to the workers=1 run for any worker count, and the
// per-channel reductions (mean/variance/dGamma/dBeta) must agree within
// 1e-12. The batch=9 case gives 9·35 = 315 rows — several bnBlockRows
// blocks, so the blocked reduction really spreads across shards; batch=1
// (35 rows) exercises the single-block path. With the grain lowered each
// parallel leg must report its splits: the three element-wise passes
// (normalize, input gradient, inference) at either batch, and at batch 9
// the three blocked reductions as well — one block cannot split.
func TestParallelBatchNormMatchesSerial(t *testing.T) {
	splitEverything(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, batch := range []int{1, 9} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			parallel.SetWorkers(1)
			out0, inf0, dIn0, dg0, db0 := runBatchNorm(t, batch)
			dg0 = append([]float64(nil), dg0...)
			db0 = append([]float64(nil), db0...)
			want := int64(3)
			if batch == 9 {
				want = 6
			}
			for _, workers := range []int{2, 4, 7} {
				parallel.SetWorkers(workers)
				var out, inf, dIn *tensor.Tensor
				var dg, db []float64
				if split, _ := splitCalls(func() { out, inf, dIn, dg, db = runBatchNorm(t, batch) }); split != want {
					t.Fatalf("workers=%d: %d loops split, want %d: the parallel leg did not run", workers, split, want)
				}
				if d := maxAbsDiff(out.Data, out0.Data); d != 0 {
					t.Errorf("workers=%d: training forward differs from serial by %g (must be bit-identical)", workers, d)
				}
				if d := maxAbsDiff(inf.Data, inf0.Data); d != 0 {
					t.Errorf("workers=%d: inference forward differs from serial by %g (must be bit-identical)", workers, d)
				}
				if d := maxAbsDiff(dIn.Data, dIn0.Data); d != 0 {
					t.Errorf("workers=%d: input gradient differs from serial by %g (must be bit-identical)", workers, d)
				}
				if d := maxAbsDiff(dg, dg0); d > 1e-12 {
					t.Errorf("workers=%d: dGamma differs from serial by %g > 1e-12", workers, d)
				}
				if d := maxAbsDiff(db, db0); d > 1e-12 {
					t.Errorf("workers=%d: dBeta differs from serial by %g > 1e-12", workers, d)
				}
			}
		})
	}
}

// TestParallelPoolMatchesSerial pins the determinism contract on the sharded
// pooling layers, forward and backward, for both window regimes: disjoint
// windows (stride >= size, backward shards over output rows) and overlapping
// windows (stride < size, backward falls back to sample-parallel scatter).
// GlobalAvgPool rides along with its sample-parallel reduction. With the
// grain lowered each parallel leg must report its splits: both passes over
// output rows, except that a pass sharded over samples cannot split a batch
// of 1 (the overlapping-window gradients, both GlobalAvgPool passes, and
// both passes of MaxPool1D, whose height-1 map has one output row a sample).
func TestParallelPoolMatchesSerial(t *testing.T) {
	type result struct {
		out, dIn *tensor.Tensor
	}
	pools := []struct {
		name   string
		split1 int64 // passes that split at batch 1; both do at batch 9
		run    func(t *testing.T, b int) result
	}{
		{"MaxPool2D/disjoint", 2, func(t *testing.T, b int) result {
			return runPool2D(t, NewMaxPool2D("mp", 2, 2), b)
		}},
		{"MaxPool2D/overlap", 1, func(t *testing.T, b int) result {
			return runPool2D(t, NewMaxPool2D("mp", 3, 2), b)
		}},
		{"AvgPool2D/disjoint", 2, func(t *testing.T, b int) result {
			return runPool2D(t, NewAvgPool2D("ap", 2, 2), b)
		}},
		{"AvgPool2D/overlap", 1, func(t *testing.T, b int) result {
			return runPool2D(t, NewAvgPool2D("ap", 3, 2), b)
		}},
		{"MaxPool1D/disjoint", 0, func(t *testing.T, b int) result {
			return runPool1D(t, NewMaxPool1D("mp", 2, 2), b)
		}},
		{"MaxPool1D/overlap", 0, func(t *testing.T, b int) result {
			return runPool1D(t, NewMaxPool1D("mp", 3, 2), b)
		}},
		{"GlobalAvgPool", 0, func(t *testing.T, b int) result {
			rng := rand.New(rand.NewSource(29))
			p := NewGlobalAvgPool("gap")
			if _, err := p.OutShape([][]int{{6, 6, 5}}); err != nil {
				t.Fatal(err)
			}
			x := tensor.New(b, 6, 6, 5)
			x.RandNormal(rng, 1)
			out := p.Forward([]*tensor.Tensor{x}, true)
			g := tensor.New(out.Shape...)
			g.RandNormal(rng, 1)
			return result{out, p.Backward(g)[0]}
		}},
	}
	splitEverything(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, p := range pools {
		for _, batch := range []int{1, 9} {
			t.Run(fmt.Sprintf("%s/batch=%d", p.name, batch), func(t *testing.T) {
				parallel.SetWorkers(1)
				r0 := p.run(t, batch)
				want := int64(2)
				if batch == 1 {
					want = p.split1
				}
				for _, workers := range []int{2, 4, 7} {
					parallel.SetWorkers(workers)
					var r result
					if split, _ := splitCalls(func() { r = p.run(t, batch) }); split != want {
						t.Fatalf("workers=%d: %d passes split, want %d: the parallel leg did not run", workers, split, want)
					}
					if d := maxAbsDiff(r.out.Data, r0.out.Data); d != 0 {
						t.Errorf("workers=%d: forward differs from serial by %g (must be bit-identical)", workers, d)
					}
					if d := maxAbsDiff(r.dIn.Data, r0.dIn.Data); d != 0 {
						t.Errorf("workers=%d: input gradient differs from serial by %g (must be bit-identical)", workers, d)
					}
				}
			})
		}
	}
}

// runPool2D runs one forward/backward of a 2-D pooling layer on a seeded
// [b, 11, 11, 3] input (11 is odd, so output rows shard unevenly).
func runPool2D(t *testing.T, l Layer, b int) struct{ out, dIn *tensor.Tensor } {
	t.Helper()
	rng := rand.New(rand.NewSource(27))
	if _, err := l.OutShape([][]int{{11, 11, 3}}); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(b, 11, 11, 3)
	x.RandNormal(rng, 1)
	out := l.Forward([]*tensor.Tensor{x}, true)
	g := tensor.New(out.Shape...)
	g.RandNormal(rng, 1)
	return struct{ out, dIn *tensor.Tensor }{out, l.Backward(g)[0]}
}

// runPool1D is runPool2D for [b, 23, 3] sequences.
func runPool1D(t *testing.T, l Layer, b int) struct{ out, dIn *tensor.Tensor } {
	t.Helper()
	rng := rand.New(rand.NewSource(28))
	if _, err := l.OutShape([][]int{{23, 3}}); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(b, 23, 3)
	x.RandNormal(rng, 1)
	out := l.Forward([]*tensor.Tensor{x}, true)
	g := tensor.New(out.Shape...)
	g.RandNormal(rng, 1)
	return struct{ out, dIn *tensor.Tensor }{out, l.Backward(g)[0]}
}

// TestGradcheckBatchNormParallel finite-differences gamma under the blocked
// parallel reductions (workers=4, rows spanning several bnBlockRows blocks),
// verifying the sharded statistics feed the same gradients as calculus says.
func TestGradcheckBatchNormParallel(t *testing.T) {
	splitEverything(t)
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(31))
	bn := NewBatchNorm("bn", 9)
	if _, err := bn.OutShape([][]int{{10, 10, 9}}); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, 10, 10, 9) // 300 rows: three reduction blocks
	x.RandNormal(rng, 1)
	allSplit(t, func() {
		gradcheckLayer(t,
			func() *tensor.Tensor { return bn.Forward([]*tensor.Tensor{x}, true) },
			func(g *tensor.Tensor) {
				bn.Gamma.Grad.Zero()
				bn.Beta.Grad.Zero()
				bn.Backward(g)
			},
			bn.Gamma.W.Data, bn.Gamma.Grad.Data)
	})
}

// TestGradcheckConv2DMicroKernel targets the GEMM register-blocked
// edges: batch 1 with a 5×5 output gives 25 patch rows (six 4-row tiles and
// a 1-row tail, 12 row pairs and a remainder row of GemmBT's f64 loop),
// OutC=6 gives one 4-column group + a 2-column remainder, and the
// 3*3*32 = 288 patch width crosses the K-tile boundary — so every block and
// its remainders contribute to the checked gradients.
func TestGradcheckConv2DMicroKernel(t *testing.T) {
	splitEverything(t)
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(33))
	c := NewConv2D("cv", 3, 3, 32, 6, Same, 0, rng)
	if _, err := c.OutShape([][]int{{5, 5, 32}}); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 5, 5, 32)
	x.RandNormal(rng, 1)
	allSplit(t, func() {
		gradcheckLayer(t,
			func() *tensor.Tensor { return c.Forward([]*tensor.Tensor{x}, true) },
			func(g *tensor.Tensor) {
				c.W.Grad.Zero()
				c.B.Grad.Zero()
				c.Backward(g)
			},
			c.W.W.Data, c.W.Grad.Data)
	})
}
