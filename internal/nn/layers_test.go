package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/tensor"
)

func TestDenseOutShapeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 4, 3, 0, rng)
	if _, err := d.OutShape([][]int{{4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.OutShape([][]int{{5}}); err == nil {
		t.Fatal("wrong input width must error")
	}
	if _, err := d.OutShape([][]int{{4}, {4}}); err == nil {
		t.Fatal("two inputs must error")
	}
	if _, err := d.OutShape([][]int{{2, 2}}); err == nil {
		t.Fatal("non-flat input must error")
	}
}

func TestDenseForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 2, 2, 0, rng)
	copy(d.W.W.Data, []float64{1, 2, 3, 4}) // W[0,:]={1,2} W[1,:]={3,4}
	copy(d.B.W.Data, []float64{0.5, -0.5})
	in := tensor.FromData([]float64{1, 1, 2, 0}, 2, 2)
	out := d.Forward([]*tensor.Tensor{in}, true)
	want := []float64{1 + 3 + 0.5, 2 + 4 - 0.5, 2 + 0.5, 4 - 0.5}
	for i, w := range want {
		if math.Abs(out.Data[i]-w) > 1e-12 {
			t.Fatalf("out[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestConv2DShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	valid := NewConv2D("cv", 3, 3, 2, 4, Valid, 0, rng)
	s, err := valid.OutShape([][]int{{8, 8, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(s, []int{6, 6, 4}) {
		t.Fatalf("valid shape = %v", s)
	}
	same := NewConv2D("cs", 3, 3, 2, 4, Same, 0, rng)
	s, err = same.OutShape([][]int{{8, 8, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(s, []int{8, 8, 4}) {
		t.Fatalf("same shape = %v", s)
	}
}

func TestConv2DDegenerateValidFallsBackToSame(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D("c", 3, 3, 1, 2, Valid, 0, rng)
	s, err := c.OutShape([][]int{{2, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(s, []int{2, 2, 2}) {
		t.Fatalf("fallback shape = %v", s)
	}
	if c.EffectivePadding() != Same {
		t.Fatal("expected fallback to same padding")
	}
	// Forward must actually work at the degenerate size.
	out := c.Forward([]*tensor.Tensor{randInput(rng, 1, 2, 2, 1)}, true)
	if !tensor.SameShape(out.Shape, []int{1, 2, 2, 2}) {
		t.Fatalf("forward shape = %v", out.Shape)
	}
}

func TestConv1DDegenerateValidFallsBackToSame(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv1D("c", 5, 1, 2, Valid, 0, rng)
	s, err := c.OutShape([][]int{{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(s, []int{3, 2}) {
		t.Fatalf("fallback shape = %v", s)
	}
	if c.EffectivePadding() != Same {
		t.Fatal("expected fallback to same padding")
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 1x1 input channel, 3x3 kernel of ones, valid padding: output =
	// sum of the window.
	rng := rand.New(rand.NewSource(5))
	c := NewConv2D("c", 3, 3, 1, 1, Valid, 0, rng)
	c.W.W.Fill(1)
	c.B.W.Fill(0)
	if _, err := c.OutShape([][]int{{3, 3, 1}}); err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 3, 3, 1)
	for i := range in.Data {
		in.Data[i] = float64(i + 1) // 1..9, sum 45
	}
	out := c.Forward([]*tensor.Tensor{in}, true)
	if out.Numel() != 1 || math.Abs(out.Data[0]-45) > 1e-12 {
		t.Fatalf("conv output = %v", out.Data)
	}
}

func TestMaxPoolSemantics(t *testing.T) {
	p := NewMaxPool2D("p", 2, 2)
	s, err := p.OutShape([][]int{{4, 4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(s, []int{2, 2, 1}) {
		t.Fatalf("pool shape = %v", s)
	}
	in := tensor.New(1, 4, 4, 1)
	for i := range in.Data {
		in.Data[i] = float64(i)
	}
	out := p.Forward([]*tensor.Tensor{in}, true)
	want := []float64{5, 7, 13, 15}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("pool out = %v, want %v", out.Data, want)
		}
	}
}

func TestMaxPoolIdentityFallback(t *testing.T) {
	p := NewMaxPool2D("p", 3, 3)
	s, err := p.OutShape([][]int{{2, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(s, []int{2, 2, 4}) || !p.IsIdentity() {
		t.Fatalf("expected identity fallback, got %v identity=%v", s, p.IsIdentity())
	}
	in := tensor.New(1, 2, 2, 4)
	out := p.Forward([]*tensor.Tensor{in}, true)
	if out != in {
		t.Fatal("identity pool must pass input through")
	}
	d := p.Backward(out)
	if d[0] != out {
		t.Fatal("identity pool backward must pass gradient through")
	}
}

func TestMaxPool1DStride(t *testing.T) {
	p := NewMaxPool1D("p", 2, 3)
	s, err := p.OutShape([][]int{{8, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// windows at 0,3,6 -> 3 outputs
	if !tensor.SameShape(s, []int{3, 1}) {
		t.Fatalf("shape = %v", s)
	}
}

func TestBatchNormNormalizesTrainingBatch(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	if _, err := bn.OutShape([][]int{{2}}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	in := randInput(rng, 64, 2)
	out := bn.Forward([]*tensor.Tensor{in}, true)
	for c := 0; c < 2; c++ {
		mean, sq := 0.0, 0.0
		for i := c; i < out.Numel(); i += 2 {
			mean += out.Data[i]
			sq += out.Data[i] * out.Data[i]
		}
		mean /= 64
		sq /= 64
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("channel %d mean = %v", c, mean)
		}
		if math.Abs(sq-1) > 1e-3 {
			t.Fatalf("channel %d var = %v", c, sq)
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	if _, err := bn.OutShape([][]int{{1}}); err != nil {
		t.Fatal(err)
	}
	// Train on a batch with mean 10.
	in := tensor.FromData([]float64{9, 10, 11, 10}, 4, 1)
	bn.Forward([]*tensor.Tensor{in}, true)
	// First batch seeds the running stats directly.
	if math.Abs(bn.RunMean.W.Data[0]-10) > 1e-9 {
		t.Fatalf("running mean = %v", bn.RunMean.W.Data[0])
	}
	// Inference on a constant 10 must map to ~0.
	test := tensor.FromData([]float64{10}, 1, 1)
	out := bn.Forward([]*tensor.Tensor{test}, false)
	if math.Abs(out.Data[0]) > 1e-6 {
		t.Fatalf("normalized value = %v, want ~0", out.Data[0])
	}
}

func TestBatchNormRejectsWrongChannels(t *testing.T) {
	bn := NewBatchNorm("bn", 3)
	if _, err := bn.OutShape([][]int{{4, 4, 2}}); err == nil {
		t.Fatal("wrong channel count must error")
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDropout("do", 0.5, rng)
	if _, err := d.OutShape([][]int{{1000}}); err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 1000)
	in.Fill(1)
	// Eval: identity.
	out := d.Forward([]*tensor.Tensor{in}, false)
	if out != in {
		t.Fatal("eval-mode dropout must be identity")
	}
	// Train: ~half zero, survivors scaled by 2; expectation preserved.
	out = d.Forward([]*tensor.Tensor{in}, true)
	zeros, sum := 0, 0.0
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("survivor value = %v, want 2", v)
		}
		sum += v
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("zeros = %d, want ~500", zeros)
	}
	if mean := sum / 1000; math.Abs(mean-1) > 0.15 {
		t.Fatalf("mean = %v, want ~1", mean)
	}
	// Backward applies the same mask.
	g := tensor.New(1, 1000)
	g.Fill(1)
	dIn := d.Backward(g)
	for i, v := range out.Data {
		want := 0.0
		if v != 0 {
			want = 2
		}
		if dIn[0].Data[i] != want {
			t.Fatalf("backward mask mismatch at %d", i)
		}
	}
}

func TestDropoutRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rate 1.0 must panic")
		}
	}()
	NewDropout("do", 1.0, rand.New(rand.NewSource(1)))
}

// dropoutReference is DropoutOf.Forward's training pass as a branch on each
// draw: the definition the layer's select must reproduce.
func dropoutReference[T tensor.Float](out, mask, x []T, rate float64, rng *rand.Rand) {
	keep := T(1 / (1 - rate))
	for i, v := range x {
		if rng.Float64() < rate {
			mask[i], out[i] = 0, 0
		} else {
			mask[i], out[i] = keep, v*keep
		}
	}
}

// TestDropoutMatchesReference holds the training forward pass to
// dropoutReference bit for bit — output, mask, and the generator's next
// draw — at both dtypes and several rates, over inputs that include ±0,
// ±Inf, NaN and subnormals: a kept NaN stays NaN, a dropped element is +0
// (never −0, whatever the input's sign), and each element takes exactly one
// draw in order. A layer holding its generator's tensor.Stream draws in bulk
// and must match the same reference over rand.NewSource.
func TestDropoutMatchesReference(t *testing.T) {
	t.Run("f32", testDropoutMatchesReference[float32])
	t.Run("f64", testDropoutMatchesReference[float64])
}

func testDropoutMatchesReference[T tensor.Float](t *testing.T) {
	corners := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		-math.NaN(), 5e-324, -5e-324, 1e-40, -1e-40, math.MaxFloat64}
	src := rand.New(rand.NewSource(17))
	x := make([]T, 1031)
	for i := range x {
		x[i] = T(src.NormFloat64())
		if i%7 == 0 {
			x[i] = T(corners[(i/7)%len(corners)])
		}
	}
	for _, rate := range []float64{0.02, 0.3, 0.5} {
		for _, bulk := range []bool{false, true} {
			seed := int64(100 * rate)
			d := &DropoutOf[T]{name: "do", Rate: rate, rng: rand.New(rand.NewSource(seed))}
			if bulk {
				d.stream = tensor.NewStream(seed)
				d.rng = d.stream.Rand()
			}
			out := d.Forward([]*tensor.TensorOf[T]{{Shape: []int{len(x)}, Data: x}}, true)
			wantOut, wantMask := make([]T, len(x)), make([]T, len(x))
			ref := rand.New(rand.NewSource(seed))
			dropoutReference(wantOut, wantMask, x, rate, ref)
			if !sameBits(out.Data, wantOut) {
				t.Errorf("rate %v bulk %v: output differs from the reference", rate, bulk)
			}
			if !sameBits(d.mask, wantMask) {
				t.Errorf("rate %v bulk %v: mask differs from the reference", rate, bulk)
			}
			if got, want := d.rng.Float64(), ref.Float64(); got != want {
				t.Errorf("rate %v bulk %v: next draw %v, reference %v: the pass took a different number of draws", rate, bulk, got, want)
			}
		}
	}
}

// TestDrawFromHandsOnlyItsStream: DrawFrom gives the stream to the dropout
// layers built with its rand.Rand and to no other, and ConvertNetwork
// carries it to the converted layers.
func TestDrawFromHandsOnlyItsStream(t *testing.T) {
	s := tensor.NewStream(3)
	net := NewNetwork([]int{4})
	a := net.MustAdd(NewDropout("a", 0.3, s.Rand()), GraphInput(0))
	net.MustAdd(NewDropout("b", 0.3, rand.New(rand.NewSource(3))), a)
	net.DrawFrom(s)
	ls := net.Layers()
	if ls[0].(*Dropout).stream != s || ls[1].(*Dropout).stream != nil {
		t.Fatalf("streams after DrawFrom: %p and %p, want %p and nil", ls[0].(*Dropout).stream, ls[1].(*Dropout).stream, s)
	}
	n32, err := ConvertNetwork[float32](net)
	if err != nil {
		t.Fatal(err)
	}
	c := n32.Layers()
	if c[0].(*DropoutOf[float32]).stream != s || c[1].(*DropoutOf[float32]).stream != nil {
		t.Fatal("ConvertNetwork did not carry the streams")
	}
}

// BenchmarkDropoutForward times the training forward pass per element over
// 32768 normal inputs, at the rates uno's and mnist's spaces offer: draw
// included, at both dtypes.
func BenchmarkDropoutForward(b *testing.B) {
	b.Run("f32", benchDropout[float32])
	b.Run("f64", benchDropout[float64])
}

func benchDropout[T tensor.Float](b *testing.B) {
	const n = 1 << 15
	src := rand.New(rand.NewSource(18))
	x := &tensor.TensorOf[T]{Shape: []int{n}, Data: make([]T, n)}
	for i := range x.Data {
		x.Data[i] = T(src.NormFloat64())
	}
	for _, rate := range []float64{0.1, 0.3, 0.5} {
		b.Run(fmt.Sprintf("rate=%g", rate), func(b *testing.B) {
			d := &DropoutOf[T]{name: "do", Rate: rate, rng: rand.New(rand.NewSource(19))}
			in := []*tensor.TensorOf[T]{x}
			d.Forward(in, true) // sizes the layer's buffers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Forward(in, true)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}

func TestIdentityPassThrough(t *testing.T) {
	id := NewIdentity("id")
	s, err := id.OutShape([][]int{{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(s, []int{3, 4}) {
		t.Fatalf("shape = %v", s)
	}
	in := tensor.New(2, 3, 4)
	if id.Forward([]*tensor.Tensor{in}, true) != in {
		t.Fatal("identity must return its input")
	}
}

func TestConcatShapesAndValues(t *testing.T) {
	c := NewConcat("cat")
	s, err := c.OutShape([][]int{{2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(s, []int{5}) {
		t.Fatalf("shape = %v", s)
	}
	a := tensor.FromData([]float64{1, 2, 3, 4}, 2, 2)
	b := tensor.FromData([]float64{5, 6, 7, 8, 9, 10}, 2, 3)
	out := c.Forward([]*tensor.Tensor{a, b}, true)
	want := []float64{1, 2, 5, 6, 7, 3, 4, 8, 9, 10}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("concat = %v, want %v", out.Data, want)
		}
	}
	if _, err := c.OutShape([][]int{{2, 2}}); err == nil {
		t.Fatal("non-flat input must error")
	}
}

func TestNetworkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewNetwork([]int{4})
	if _, err := net.Add(NewDense("d", 4, 2, 0, rng), GraphInput(1)); err == nil {
		t.Fatal("out-of-range graph input must error")
	}
	if _, err := net.Add(NewDense("d", 4, 2, 0, rng), InputRef(5)); err == nil {
		t.Fatal("future node reference must error")
	}
	if _, err := net.Forward([]*tensor.Tensor{tensor.New(1, 4)}, true); err == nil {
		t.Fatal("forward on empty network must error")
	}
	net.MustAdd(NewDense("d", 4, 2, 0, rng), GraphInput(0))
	if _, err := net.Forward(nil, true); err == nil {
		t.Fatal("wrong input count must error")
	}
	if err := net.Backward(tensor.New(1, 2)); err == nil {
		t.Fatal("backward before forward must error")
	}
	if err := net.SetOutput(GraphInput(0)); err == nil {
		t.Fatal("graph input cannot be the output")
	}
}

func TestNetworkParamCountAndGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewNetwork([]int{4})
	net.MustAdd(NewDense("d1", 4, 8, 0, rng), GraphInput(0))
	net.MustAdd(NewActivation("a", ReLU), 0)
	net.MustAdd(NewBatchNorm("bn", 8), 1)
	net.MustAdd(NewDense("d2", 8, 2, 0, rng), 2)
	// d1: 4*8+8=40, bn trainable: 8+8=16, d2: 8*2+2=18 => 74
	if c := net.ParamCount(); c != 74 {
		t.Fatalf("ParamCount = %d, want 74", c)
	}
	gs := net.ParamGroups()
	if len(gs) != 3 {
		t.Fatalf("got %d param groups, want 3", len(gs))
	}
	if !tensor.SameShape(gs[0].Signature, []int{4, 8}) ||
		!tensor.SameShape(gs[1].Signature, []int{8}) ||
		!tensor.SameShape(gs[2].Signature, []int{8, 2}) {
		t.Fatalf("signatures = %v %v %v", gs[0].Signature, gs[1].Signature, gs[2].Signature)
	}
	if len(gs[1].Params) != 4 {
		t.Fatalf("batchnorm group has %d tensors, want 4", len(gs[1].Params))
	}
}
