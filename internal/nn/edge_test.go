package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"swtnas/internal/tensor"
)

func TestConv2DKernel5Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net := NewNetwork([]int{6, 6, 1})
	net.MustAdd(NewConv2D("c", 5, 5, 1, 2, Same, 0, rng), GraphInput(0))
	net.MustAdd(NewFlatten("f"), 0)
	net.MustAdd(NewDense("d", 6*6*2, 2, 0, rng), 1)
	checkGradients(t, net, SoftmaxCrossEntropy{}, []*tensor.Tensor{randInput(rng, 2, 6, 6, 1)}, classTargets(rng, 2, 2))
}

func TestConv1DKernel7Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	net := NewNetwork([]int{12, 1})
	net.MustAdd(NewConv1D("c", 7, 1, 2, Valid, 0, rng), GraphInput(0))
	net.MustAdd(NewFlatten("f"), 0)
	net.MustAdd(NewDense("d", 6*2, 2, 0, rng), 1)
	checkGradients(t, net, SoftmaxCrossEntropy{}, []*tensor.Tensor{randInput(rng, 2, 12, 1)}, classTargets(rng, 2, 2))
}

func TestMaxPoolUnevenStrideGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	checkInputGradient(t, NewMaxPool2D("p", 2, 3), []*tensor.Tensor{randInput(rng, 2, 7, 7, 2)})
	checkInputGradient(t, NewMaxPool1D("p", 3, 2), []*tensor.Tensor{randInput(rng, 2, 9, 2)})
}

// TestMaxPoolDivergedWindow: a window whose every tap is NaN or −Inf — what
// a diverged run feeds a pool — keeps its −Inf output and sends its
// gradient to the window's first tap, where it used to index −1 and panic.
func TestMaxPoolDivergedWindow(t *testing.T) {
	nan, negInf := math.NaN(), math.Inf(-1)
	for _, c := range []struct {
		pool    Layer
		in, out []int
	}{
		{NewMaxPool2D("p", 2, 2), []int{2, 2, 1}, []int{1, 1, 1, 1}},
		{NewMaxPool1D("p", 4, 4), []int{4, 1}, []int{1, 1, 1}},
	} {
		if _, err := c.pool.OutShape([][]int{c.in}); err != nil {
			t.Fatal(err)
		}
		x := tensor.FromData([]float64{nan, negInf, nan, nan}, append([]int{1}, c.in...)...)
		if y := c.pool.Forward([]*tensor.Tensor{x}, true); !math.IsInf(y.Data[0], -1) {
			t.Fatalf("%T: output %v, want −Inf", c.pool, y.Data[0])
		}
		dIn := c.pool.Backward(tensor.FromData([]float64{1}, c.out...))[0]
		if got := dIn.Data; got[0] != 1 || got[1] != 0 || got[2] != 0 || got[3] != 0 {
			t.Fatalf("%T: input gradient %v, want [1 0 0 0]", c.pool, got)
		}
	}
}

func TestDeepStackTrainsWithoutNaN(t *testing.T) {
	// A deliberately deep mixed stack (conv, bn, pool, dropout, dense)
	// must train several epochs without producing NaN/Inf.
	rng := rand.New(rand.NewSource(34))
	net := NewNetwork([]int{8, 8, 2})
	ref := net.MustAdd(NewConv2D("c1", 3, 3, 2, 4, Same, 0.0005, rng), GraphInput(0))
	ref = net.MustAdd(NewBatchNorm("bn1", 4), ref)
	ref = net.MustAdd(NewActivation("a1", ReLU), ref)
	ref = net.MustAdd(NewMaxPool2D("p1", 2, 2), ref)
	ref = net.MustAdd(NewConv2D("c2", 3, 3, 4, 4, Valid, 0, rng), ref)
	ref = net.MustAdd(NewActivation("a2", Tanh), ref)
	ref = net.MustAdd(NewFlatten("f"), ref)
	ref = net.MustAdd(NewDense("d1", 2*2*4, 16, 0, rng), ref)
	ref = net.MustAdd(NewDropout("do", 0.3, rng), ref)
	ref = net.MustAdd(NewActivation("a3", Sigmoid), ref)
	net.MustAdd(NewDense("d2", 16, 3, 0, rng), ref)

	n := 48
	x := tensor.New(n, 8, 8, 2)
	x.RandNormal(rng, 1)
	targets := classTargets(rng, n, 3)
	d := &Data{Inputs: []*tensor.Tensor{x}, Targets: targets}
	h, err := Fit(net, SoftmaxCrossEntropy{}, Accuracy{}, NewAdam(), d, d, FitConfig{Epochs: 4, BatchSize: 16, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range h.TrainLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("loss diverged: %v", h.TrainLoss)
		}
	}
	for _, p := range net.Params() {
		for _, v := range p.W.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("parameter %s contains NaN/Inf", p.Name)
			}
		}
	}
}

func TestWarmStartTrainsFasterThanScratch(t *testing.T) {
	// The package-level statement of the paper's Section III thought
	// experiment: resuming a half-trained network reaches a better score
	// after one more epoch than a fresh one.
	rng := rand.New(rand.NewSource(35))
	build := func(seed int64) *Network {
		r := rand.New(rand.NewSource(seed))
		net := NewNetwork([]int{2})
		net.MustAdd(NewDense("d1", 2, 16, 0, r), GraphInput(0))
		net.MustAdd(NewActivation("a", Tanh), 0)
		net.MustAdd(NewDense("d2", 16, 2, 0, r), 1)
		return net
	}
	train := twoBlobs(rng, 64)
	val := twoBlobs(rng, 64)

	warm := build(1)
	if _, err := Fit(warm, SoftmaxCrossEntropy{}, Accuracy{}, NewAdam(), train, val, FitConfig{Epochs: 3, BatchSize: 16, RNG: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
	hWarm, err := Fit(warm, SoftmaxCrossEntropy{}, Accuracy{}, NewAdam(), train, val, FitConfig{Epochs: 1, BatchSize: 16, RNG: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	fresh := build(1)
	hFresh, err := Fit(fresh, SoftmaxCrossEntropy{}, Accuracy{}, NewAdam(), train, val, FitConfig{Epochs: 1, BatchSize: 16, RNG: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if hWarm.FinalScore() < hFresh.FinalScore() {
		t.Fatalf("warm start (%.4f) scored below scratch (%.4f)", hWarm.FinalScore(), hFresh.FinalScore())
	}
}

// Property: softmax-CE loss is always positive and its gradient rows sum to
// zero (softmax minus one-hot).
func TestQuickSoftmaxCEGradientRowsSumZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, k := 1+rng.Intn(5), 2+rng.Intn(5)
		pred := tensor.New(b, k)
		pred.RandNormal(rng, 3)
		targets := classTargets(rng, b, k)
		loss, grad := SoftmaxCrossEntropy{}.Forward(pred, targets)
		if loss < 0 {
			return false
		}
		for i := 0; i < b; i++ {
			sum := 0.0
			for j := 0; j < k; j++ {
				sum += grad.Data[i*k+j]
			}
			if math.Abs(sum) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: R2 of predictions equal to targets is 1; adding error lowers it.
func TestQuickR2Monotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		targets := make([]float64, n)
		for i := range targets {
			targets[i] = rng.NormFloat64()
		}
		perfect := tensor.FromData(append([]float64(nil), targets...), n, 1)
		noisy := perfect.Clone()
		for i := range noisy.Data {
			noisy.Data[i] += rng.NormFloat64() * 0.5
		}
		r2p := (R2{}).Eval(perfect, targets)
		r2n := (R2{}).Eval(noisy, targets)
		return math.Abs(r2p-1) < 1e-9 && r2n <= r2p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEarlyStopPatienceBoundary(t *testing.T) {
	// Patience 1: the first flat epoch stops training.
	rng := rand.New(rand.NewSource(36))
	net := NewNetwork([]int{2})
	net.MustAdd(NewDense("d", 2, 2, 0, rng), GraphInput(0))
	d := twoBlobs(rng, 32)
	h, err := Fit(net, SoftmaxCrossEntropy{}, Accuracy{}, NewAdam(), d, d, FitConfig{
		Epochs: 30, BatchSize: 8, RNG: rng,
		EarlyStopDelta: 1.0, EarlyStopPatience: 1, // any change <= 1.0 counts as flat
	})
	if err != nil {
		t.Fatal(err)
	}
	if !h.EarlyStopped || h.EpochsRun != 2 {
		t.Fatalf("epochs = %d earlyStopped = %v; want stop at epoch 2", h.EpochsRun, h.EarlyStopped)
	}
}
