package nn

import (
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/tensor"
)

func TestSoftmaxCEKnownValues(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	pred := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy{}.Forward(pred, []float64{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// grad = (softmax - onehot)/B = (0.25 - onehot)/2
	if math.Abs(grad.Data[0]-(0.25-1)/2) > 1e-12 {
		t.Fatalf("grad[0] = %v", grad.Data[0])
	}
	if math.Abs(grad.Data[1]-0.25/2) > 1e-12 {
		t.Fatalf("grad[1] = %v", grad.Data[1])
	}
}

func TestSoftmaxCENumericallyStable(t *testing.T) {
	pred := tensor.FromData([]float64{1000, 0}, 1, 2)
	loss, _ := SoftmaxCrossEntropy{}.Forward(pred, []float64{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) || loss > 1e-6 {
		t.Fatalf("loss = %v, want ~0", loss)
	}
}

func TestMAEKnownValues(t *testing.T) {
	pred := tensor.FromData([]float64{1, 4}, 2, 1)
	loss, grad := MAE{}.Forward(pred, []float64{2, 2})
	if math.Abs(loss-1.5) > 1e-12 {
		t.Fatalf("loss = %v, want 1.5", loss)
	}
	if grad.Data[0] != -0.5 || grad.Data[1] != 0.5 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestAccuracy(t *testing.T) {
	pred := tensor.FromData([]float64{
		0.9, 0.1, // -> 0
		0.2, 0.8, // -> 1
		0.6, 0.4, // -> 0
	}, 3, 2)
	acc := Accuracy{}.Eval(pred, []float64{0, 1, 1})
	if math.Abs(acc-2.0/3) > 1e-12 {
		t.Fatalf("acc = %v", acc)
	}
}

func TestR2(t *testing.T) {
	pred := tensor.FromData([]float64{1, 2, 3}, 3, 1)
	if r := (R2{}).Eval(pred, []float64{1, 2, 3}); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect R2 = %v", r)
	}
	// Predicting the mean everywhere gives R2 = 0.
	mean := tensor.FromData([]float64{2, 2, 2}, 3, 1)
	if r := (R2{}).Eval(mean, []float64{1, 2, 3}); math.Abs(r) > 1e-12 {
		t.Fatalf("mean-prediction R2 = %v", r)
	}
	// Constant targets: defined as 0.
	if r := (R2{}).Eval(pred, []float64{5, 5, 5}); r != 0 {
		t.Fatalf("constant-target R2 = %v", r)
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	w := tensor.FromData([]float64{-4}, 1)
	p := &Param{Name: "w", W: w, Grad: tensor.New(1)}
	adam := NewAdam()
	adam.LR = 0.1
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (w.Data[0] - 3) // d/dw (w-3)^2
		adam.Step([]*Param{p})
	}
	if math.Abs(w.Data[0]-3) > 1e-2 {
		t.Fatalf("Adam converged to %v, want 3", w.Data[0])
	}
}

func TestOptimizersSkipNonTrainable(t *testing.T) {
	w := tensor.FromData([]float64{7}, 1)
	p := &Param{Name: "stat", W: w} // nil Grad: non-trainable
	NewAdam().Step([]*Param{p})
	if w.Data[0] != 7 {
		t.Fatal("non-trainable parameter was updated")
	}
}

// twoBlobs builds a linearly separable 2-class dataset.
func twoBlobs(rng *rand.Rand, n int) *Data {
	x := tensor.New(n, 2)
	targets := make([]float64, n)
	for i := 0; i < n; i++ {
		c := i % 2
		cx := -1.5
		if c == 1 {
			cx = 1.5
		}
		x.Data[i*2] = cx + rng.NormFloat64()*0.5
		x.Data[i*2+1] = rng.NormFloat64() * 0.5
		targets[i] = float64(c)
	}
	return &Data{Inputs: []*tensor.Tensor{x}, Targets: targets}
}

func TestFitLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewNetwork([]int{2})
	net.MustAdd(NewDense("d1", 2, 8, 0, rng), GraphInput(0))
	net.MustAdd(NewActivation("a", ReLU), 0)
	net.MustAdd(NewDense("d2", 8, 2, 0, rng), 1)
	train := twoBlobs(rng, 128)
	val := twoBlobs(rng, 64)
	h, err := Fit(net, SoftmaxCrossEntropy{}, Accuracy{}, NewAdam(), train, val, FitConfig{
		Epochs: 15, BatchSize: 16, RNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.FinalScore() < 0.95 {
		t.Fatalf("final accuracy = %v, want >= 0.95 (history %v)", h.FinalScore(), h.ValScore)
	}
	if h.TrainLoss[len(h.TrainLoss)-1] >= h.TrainLoss[0] {
		t.Fatalf("loss did not decrease: %v", h.TrainLoss)
	}
}

func TestFitEarlyStops(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	net := NewNetwork([]int{2})
	net.MustAdd(NewDense("d1", 2, 8, 0, rng), GraphInput(0))
	net.MustAdd(NewActivation("a", ReLU), 0)
	net.MustAdd(NewDense("d2", 8, 2, 0, rng), 1)
	train := twoBlobs(rng, 128)
	val := twoBlobs(rng, 64)
	h, err := Fit(net, SoftmaxCrossEntropy{}, Accuracy{}, NewAdam(), train, val, FitConfig{
		Epochs: 50, BatchSize: 16, RNG: rng,
		EarlyStopDelta: 0.01, EarlyStopPatience: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !h.EarlyStopped {
		t.Fatalf("expected early stop on an easy task; ran %d epochs", h.EpochsRun)
	}
	if h.EpochsRun >= 50 {
		t.Fatalf("early stop did not shorten training: %d epochs", h.EpochsRun)
	}
}

func TestFitValidatesConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	net := NewNetwork([]int{2})
	net.MustAdd(NewDense("d", 2, 2, 0, rng), GraphInput(0))
	d := twoBlobs(rng, 8)
	if _, err := Fit(net, SoftmaxCrossEntropy{}, Accuracy{}, NewAdam(), d, d, FitConfig{Epochs: 0, BatchSize: 4}); err == nil {
		t.Fatal("zero epochs must error")
	}
	if _, err := Fit(net, SoftmaxCrossEntropy{}, Accuracy{}, NewAdam(), d, d, FitConfig{Epochs: 1, BatchSize: 0}); err == nil {
		t.Fatal("zero batch size must error")
	}
	bad := &Data{Inputs: d.Inputs, Targets: d.Targets[:3]}
	if _, err := Fit(net, SoftmaxCrossEntropy{}, Accuracy{}, NewAdam(), bad, d, FitConfig{Epochs: 1, BatchSize: 4}); err == nil {
		t.Fatal("mismatched targets must error")
	}
}

func TestEvaluateMatchesBatchedAndWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	net := NewNetwork([]int{2})
	net.MustAdd(NewDense("d", 2, 2, 0, rng), GraphInput(0))
	d := twoBlobs(rng, 33) // odd size exercises the ragged final batch
	whole, err := Evaluate(net, Accuracy{}, d, 33)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Evaluate(net, Accuracy{}, d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if whole != batched {
		t.Fatalf("batched evaluate %v != whole %v", batched, whole)
	}
	if _, err := Evaluate(net, Accuracy{}, &Data{}, 8); err == nil {
		t.Fatal("empty data must error")
	}
}

func TestDataGatherSlice(t *testing.T) {
	x := tensor.FromData([]float64{0, 1, 2, 3, 4, 5}, 3, 2)
	d := &Data{Inputs: []*tensor.Tensor{x}, Targets: []float64{10, 11, 12}}
	g := d.Gather([]int{2, 0})
	if g.Targets[0] != 12 || g.Targets[1] != 10 {
		t.Fatalf("targets = %v", g.Targets)
	}
	if g.Inputs[0].Data[0] != 4 || g.Inputs[0].Data[2] != 0 {
		t.Fatalf("rows = %v", g.Inputs[0].Data)
	}
	s := d.Slice(1, 3)
	if s.N() != 2 || s.Targets[0] != 11 {
		t.Fatalf("slice = %+v", s)
	}
}

func TestHistoryScores(t *testing.T) {
	h := &History{}
	if !math.IsInf(h.FinalScore(), -1) {
		t.Fatal("empty history must report -Inf")
	}
	h.ValScore = []float64{0.2, 0.9, 0.5}
	if h.FinalScore() != 0.5 {
		t.Fatalf("final score = %v, want the last epoch's 0.5", h.FinalScore())
	}
}
