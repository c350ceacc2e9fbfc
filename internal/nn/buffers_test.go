package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"swtnas/internal/tensor"
)

// stepCase is a network shaped like one application's candidates, small
// enough to step in microseconds. Between them the four cases hold every
// built-in layer, SAME- and VALID-padded convolutions, disjoint and
// overlapping pool windows, BatchNorm, both average pools, fan-out nodes,
// dropout at a rate above zero, a dead first layer of each kind and an
// aliasing chain (Identity, Flatten) that ends at the network output.
type stepCase struct {
	name     string
	inShapes [][]int
	classes  int // 0: one regression output under MAE
	build    func(rng *rand.Rand) *Network
}

var stepCases = []stepCase{
	{"cifar10", [][]int{{8, 8, 3}}, 3, func(rng *rand.Rand) *Network {
		net := NewNetwork([]int{8, 8, 3})
		h := net.MustAdd(NewConv2D("c1", 3, 3, 3, 4, Same, 0.0005, rng), GraphInput(0))
		h = net.MustAdd(NewActivation("r1", ReLU), h)
		h = net.MustAdd(NewMaxPool2D("mp", 2, 2), h)
		bn := net.MustAdd(NewBatchNorm("bn1", 4), h) // fans out: c2 and the skip
		h = net.MustAdd(NewConv2D("c2", 3, 3, 4, 4, Same, 0, rng), bn)
		h = net.MustAdd(NewAdd("skip"), h, bn)
		h = net.MustAdd(NewAvgPool2D("ap", 2, 2), h)
		h = net.MustAdd(NewBatchNorm("bn2", 4), h)
		h = net.MustAdd(NewGlobalAvgPool("gap"), h)
		h = net.MustAdd(NewDense("d1", 4, 8, 0, rng), h)
		h = net.MustAdd(NewActivation("r2", ReLU), h)
		h = net.MustAdd(NewDropout("dr", 0.3, rng), h)
		net.MustAdd(NewDense("head", 8, 3, 0, rng), h)
		return net
	}},
	{"mnist", [][]int{{10, 10, 1}}, 3, func(rng *rand.Rand) *Network {
		net := NewNetwork([]int{10, 10, 1})
		h := net.MustAdd(NewConv2D("c1", 5, 5, 1, 4, Valid, 0, rng), GraphInput(0))
		h = net.MustAdd(NewActivation("a1", Tanh), h)
		h = net.MustAdd(NewMaxPool2D("mp", 3, 2), h) // overlapping windows
		h = net.MustAdd(NewConv2D("c2", 3, 3, 4, 4, Same, 0, rng), h)
		h = net.MustAdd(NewActivation("a2", Sigmoid), h)
		h = net.MustAdd(NewFlatten("fl"), h)
		h = net.MustAdd(NewDense("d1", 16, 8, 0, rng), h)
		h = net.MustAdd(NewActivation("a3", ReLU), h)
		h = net.MustAdd(NewDropout("dr", 0.2, rng), h)
		h = net.MustAdd(NewDense("head", 8, 3, 0, rng), h)
		h = net.MustAdd(NewIdentity("out-id"), h) // the output is two aliases away from its storage
		net.MustAdd(NewFlatten("out-fl"), h)
		return net
	}},
	{"nt3", [][]int{{40, 2}}, 2, func(rng *rand.Rand) *Network {
		net := NewNetwork([]int{40, 2})
		h := net.MustAdd(NewConv1D("c1", 5, 2, 4, Valid, 0, rng), GraphInput(0))
		h = net.MustAdd(NewActivation("a1", ReLU), h)
		h = net.MustAdd(NewMaxPool1D("mp", 3, 3), h)
		h = net.MustAdd(NewConv1D("c2", 3, 4, 4, Same, 0, rng), h)
		h = net.MustAdd(NewMaxPool1D("mp2", 3, 2), h) // overlapping windows
		h = net.MustAdd(NewFlatten("fl"), h)
		h = net.MustAdd(NewDense("d1", 20, 8, 0, rng), h)
		h = net.MustAdd(NewActivation("a2", Tanh), h)
		h = net.MustAdd(NewDropout("dr1", 0.3, rng), h)
		h = net.MustAdd(NewDense("d2", 8, 8, 0, rng), h)
		h = net.MustAdd(NewDropout("dr2", 0.1, rng), h)
		net.MustAdd(NewDense("head", 8, 2, 0, rng), h)
		return net
	}},
	{"uno", [][]int{{6}, {5}, {4}, {3}}, 0, func(rng *rand.Rand) *Network {
		net := NewNetwork([]int{6}, []int{5}, []int{4}, []int{3})
		t0 := net.MustAdd(NewDense("t0", 6, 4, 0, rng), GraphInput(0))
		t0 = net.MustAdd(NewActivation("t0r", ReLU), t0)
		t1 := net.MustAdd(NewIdentity("t1id"), GraphInput(1)) // d(t1) is dead through the identity
		t1 = net.MustAdd(NewDense("t1", 5, 4, 0, rng), t1)
		t2 := net.MustAdd(NewDropout("t2dr", 0.4, rng), GraphInput(2))
		t2 = net.MustAdd(NewDense("t2", 4, 4, 0, rng), t2)
		cat := net.MustAdd(NewConcat("cat"), t0, t1, t2, GraphInput(3)) // fans out: the block and its skip
		h := net.MustAdd(NewDense("b1", 15, 15, 0, rng), cat)
		h = net.MustAdd(NewActivation("b1r", ReLU), h)
		h = net.MustAdd(NewDense("b2", 15, 15, 0, rng), h)
		h = net.MustAdd(NewAdd("res"), h, cat)
		h = net.MustAdd(NewDropout("dr", 0.3, rng), h)
		net.MustAdd(NewDense("head", 15, 1, 0, rng), h)
		return net
	}},
}

// data draws n seeded samples for the case.
func (c stepCase) data(seed int64, n int) *Data {
	rng := rand.New(rand.NewSource(seed))
	d := &Data{Targets: make([]float64, n)}
	for _, s := range c.inShapes {
		d.Inputs = append(d.Inputs, randInput(rng, append([]int{n}, s...)...))
	}
	for i := range d.Targets {
		if c.classes > 0 {
			d.Targets[i] = float64(rng.Intn(c.classes))
		} else {
			d.Targets[i] = rng.NormFloat64()
		}
	}
	return d
}

func (c stepCase) loss() Loss {
	if c.classes > 0 {
		return SoftmaxCrossEntropy{}
	}
	return MAE{}
}

// stepper builds the case's network from seed and wraps it in the state of a
// Fit call; T = float32 goes through ConvertNetwork like a search does.
func newStepper[T tensor.Float](t testing.TB, c stepCase, seed int64) *stepperOf[T] {
	t.Helper()
	net, err := ConvertNetwork[T](c.build(rand.New(rand.NewSource(seed))))
	if err != nil {
		t.Fatal(err)
	}
	loss, err := ConvertLoss[T](c.loss())
	if err != nil {
		t.Fatal(err)
	}
	return &stepperOf[T]{net: net, loss: loss, opt: NewAdamOf[T]()}
}

// eachScratch visits every scratch a training step of st writes into: the
// stepper's own, the network's and one per layer.
func eachScratch[T tensor.Float](st *stepperOf[T], visit func(s *scratchOf[T])) {
	visit(&st.bufs)
	visit(&st.net.sums)
	for _, nd := range st.net.nodes {
		visit(&nd.layer.(stepLayerOf[T]).stepBufs().scratchOf)
	}
}

// poisonBuffers overwrites every retained element with NaN and every index
// with −1, to the full capacity of each buffer: whatever a later pass reads
// without having written it first shows.
func poisonBuffers[T tensor.Float](st *stepperOf[T]) {
	eachScratch(st, func(s *scratchOf[T]) {
		for _, b := range s.slots {
			d := b.Data[:cap(b.Data)]
			for i := range d {
				d[i] = T(math.NaN())
			}
		}
		idx := s.index[:cap(s.index)]
		for i := range idx {
			idx[i] = -1
		}
		idx32 := s.index32[:cap(s.index32)]
		for i := range idx32 {
			idx32[i] = -1
		}
	})
}

// dropBuffers forgets every retained buffer, so the next pass runs on fresh
// zeroed memory as every pass did before buffers were kept.
func dropBuffers[T tensor.Float](st *stepperOf[T]) {
	eachScratch(st, func(s *scratchOf[T]) { *s = scratchOf[T]{} })
}

func retainedBytes[T tensor.Float](st *stepperOf[T]) int {
	return st.net.bufferBytes() + st.bufs.bytes()
}

// stepLog is everything observable about a run: losses, inference-time
// predictions and the final parameters.
type stepLog[T tensor.Float] struct {
	losses []float64
	preds  [][]T
	params [][]T
}

func rangeIdx(lo, hi int) []int {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return idx
}

// runEpoch is one epoch as Fit runs it, with the hook called before every
// pass: three full batches of 8, an inference sweep at batch 5 over 12 rows
// (so 5, 5 and a short 2), a short last training batch of 3, and a full
// batch again.
func runEpoch[T tensor.Float](t testing.TB, st *stepperOf[T], train, val *DataOf[T], hook func(), log *stepLog[T]) {
	t.Helper()
	step := func(idx []int) {
		hook()
		l, err := st.step(train, idx)
		if err != nil {
			t.Fatal(err)
		}
		log.losses = append(log.losses, l)
	}
	step(rangeIdx(0, 8))
	step(rangeIdx(8, 16))
	step(rangeIdx(16, 24))
	for lo := 0; lo < val.N(); lo += 5 {
		hi := lo + 5
		if hi > val.N() {
			hi = val.N()
		}
		hook()
		pred, err := st.net.Forward(val.Slice(lo, hi).Inputs, false)
		if err != nil {
			t.Fatal(err)
		}
		log.preds = append(log.preds, append([]T(nil), pred.Data...))
	}
	step(rangeIdx(24, 27))
	step(rangeIdx(3, 11))
	log.params = log.params[:0]
	for _, p := range st.net.Params() {
		log.params = append(log.params, append([]T(nil), p.W.Data...))
	}
}

func sameBits[T tensor.Float](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return false
		}
	}
	return true
}

func testPoison[T tensor.Float](t *testing.T, c stepCase) {
	train, val := ConvertData[T](c.data(1, 27)), ConvertData[T](c.data(2, 12))
	poisoned, fresh := newStepper[T](t, c, 5), newStepper[T](t, c, 5)
	var got, want stepLog[T]
	runEpoch(t, poisoned, train, val, func() { poisonBuffers(poisoned) }, &got)
	runEpoch(t, fresh, train, val, func() { dropBuffers(fresh) }, &want)
	afterFirst := retainedBytes(poisoned)
	runEpoch(t, poisoned, train, val, func() { poisonBuffers(poisoned) }, &got)
	runEpoch(t, fresh, train, val, func() { dropBuffers(fresh) }, &want)

	for i, l := range want.losses {
		if math.IsNaN(l) || math.Float64bits(got.losses[i]) != math.Float64bits(l) {
			t.Errorf("step %d: loss %v on poisoned buffers, %v on fresh ones", i, got.losses[i], l)
		}
	}
	for i := range want.preds {
		if !sameBits(got.preds[i], want.preds[i]) {
			t.Errorf("inference batch %d: predictions differ between poisoned and fresh buffers", i)
		}
	}
	for i := range want.params {
		if !sameBits(got.params[i], want.params[i]) {
			t.Errorf("parameter %d differs between poisoned and fresh buffers", i)
		}
	}
	if afterFirst == 0 {
		t.Fatal("no buffer retained after an epoch")
	}
	if now := retainedBytes(poisoned); now != afterFirst {
		t.Errorf("retained bytes grew after the first epoch: %d, then %d", afterFirst, now)
	}
}

// TestPoisonedBuffersChangeNothing proves no layer depends on zeroed or
// stale memory: with every retained buffer filled with NaN / −1 before each
// pass, two epochs — full batches, an inference sweep at another batch size,
// a short last batch — give the losses, predictions and parameters, bit for
// bit, of a run whose buffers are thrown away before each pass; and the
// retained total stops growing once the first epoch has sized everything.
func TestPoisonedBuffersChangeNothing(t *testing.T) {
	for _, c := range stepCases {
		c := c
		t.Run(c.name+"/f64", func(t *testing.T) { testPoison[float64](t, c) })
		t.Run(c.name+"/f32", func(t *testing.T) { testPoison[float32](t, c) })
	}
}

// TestStepBufferValidity pins the ownership rule of layer.go: the network's
// output stays as Forward left it through the rest of the step, the next
// Forward rewrites the same tensor, and a layer's results stay valid until
// that layer's own next pass.
func TestStepBufferValidity(t *testing.T) {
	for _, c := range stepCases {
		st := newStepper[float64](t, c, 3)
		d := c.data(4, 8)
		out, err := st.net.Forward(d.Inputs, true)
		if err != nil {
			t.Fatal(err)
		}
		seen := out.Clone()
		_, grad := st.loss.Forward(out, d.Targets)
		if err := st.net.Backward(grad); err != nil {
			t.Fatal(err)
		}
		st.opt.Step(st.net.Params())
		if !sameBits(out.Data, seen.Data) {
			t.Errorf("%s: Backward or the optimizer wrote to the network output", c.name)
		}
		again, err := st.net.Forward(d.Inputs, true)
		if err != nil {
			t.Fatal(err)
		}
		if again != out {
			t.Errorf("%s: the second Forward returned a different tensor: the output is not retained", c.name)
		}
	}
	rng := rand.New(rand.NewSource(8))
	a, b := NewDense("a", 4, 4, 0, rng), NewDense("b", 4, 4, 0, rng)
	x := randInput(rng, 2, 4)
	ya := a.Forward([]*tensor.Tensor{x}, true)
	keep := ya.Clone()
	yb := b.Forward([]*tensor.Tensor{ya}, true)
	b.Backward(yb)
	if !sameBits(ya.Data, keep.Data) {
		t.Error("another layer's passes wrote to a layer's output")
	}
	da := a.Backward(yb)[0]
	if !sameBits(ya.Data, keep.Data) || &da.Data[0] == &ya.Data[0] {
		t.Error("a layer's Backward reused the storage of its own output")
	}
}

// firstLayerGrads runs one forward/backward of first → ReLU → Flatten →
// Dense head, either inside a network (the first layer's input gradient is
// dead) or by chaining the standalone layers by hand (it is computed), and
// returns the parameter gradients and what the first layer's Backward
// returned.
func firstLayerGrads(t *testing.T, kind string, inNet bool) ([][]float64, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	var first Layer
	var in, mid []int
	switch kind {
	case "Dense":
		first, in, mid = NewDense("f", 6, 5, 0, rng), []int{6}, []int{5}
	case "Conv1D":
		first, in, mid = NewConv1D("f", 3, 2, 3, Same, 0, rng), []int{7, 2}, []int{7, 3}
	case "Conv2D":
		first, in, mid = NewConv2D("f", 3, 3, 2, 3, Same, 0, rng), []int{4, 4, 2}, []int{4, 4, 3}
	}
	layers := []Layer{first, NewActivation("r", ReLU), NewFlatten("fl"), NewDense("head", tensor.Numel(mid), 3, 0, rng)}
	x := randInput(rng, append([]int{5}, in...)...)
	dOut := randInput(rng, 5, 3)
	var dFirst *tensor.Tensor
	if inNet {
		net := NewNetwork(in)
		ref := GraphInput(0)
		for _, l := range layers {
			ref = net.MustAdd(l, ref)
		}
		if _, err := net.Forward([]*tensor.Tensor{x}, true); err != nil {
			t.Fatal(err)
		}
		if err := net.Backward(dOut); err != nil {
			t.Fatal(err)
		}
	} else {
		shape := in
		h := x
		for _, l := range layers {
			out, err := l.OutShape([][]int{shape})
			if err != nil {
				t.Fatal(err)
			}
			shape, h = out, l.Forward([]*tensor.Tensor{h}, true)
		}
		g := dOut
		for i := len(layers) - 1; i >= 0; i-- {
			g = layers[i].Backward(g)[0]
		}
		dFirst = g
	}
	var grads [][]float64
	for _, l := range layers {
		for _, p := range l.Params() {
			grads = append(grads, append([]float64(nil), p.Grad.Data...))
		}
	}
	if inNet {
		dFirst = first.Backward(layers[1].Backward(layers[2].Backward(layers[3].Backward(dOut)[0])[0])[0])[0]
	}
	return grads, dFirst
}

// TestDeadInputGradientSkipped: a first layer inside a network returns no
// input gradient and still accumulates, bit for bit, the parameter gradients
// of the standalone layer, which computes one.
func TestDeadInputGradientSkipped(t *testing.T) {
	for _, kind := range []string{"Dense", "Conv1D", "Conv2D"} {
		got, dNet := firstLayerGrads(t, kind, true)
		want, dAlone := firstLayerGrads(t, kind, false)
		if dNet != nil {
			t.Errorf("%s: the first layer of a network computed an input gradient nobody reads", kind)
		}
		if dAlone == nil || dAlone.MaxAbs() == 0 {
			t.Errorf("%s: the standalone layer returned no input gradient", kind)
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Errorf("%s: parameter gradient %d differs between the skipping and the standalone layer", kind, i)
			}
		}
	}
}

// TestLiveInputGradientKept: a layer fed by a graph input and a node still
// hands the node its gradient, and deadness passes through parameterless
// layers only.
func TestLiveInputGradientKept(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	net := NewNetwork([]int{4}, []int{4})
	d0 := NewDense("d0", 4, 4, 0, rng)
	viaID := NewDense("d1", 4, 4, 0, rng)
	h := net.MustAdd(d0, GraphInput(0))
	sum := NewAdd("sum")
	h = net.MustAdd(sum, h, GraphInput(1)) // one live input, one graph input
	id := net.MustAdd(NewIdentity("id"), GraphInput(1))
	k := net.MustAdd(viaID, id)
	cat := NewConcat("cat")
	h = net.MustAdd(cat, GraphInput(0), h, k)
	head := NewDense("head", 12, 2, 0, rng)
	net.MustAdd(head, h)
	if !d0.deadIn || !viaID.deadIn || sum.deadIn || cat.deadIn || head.deadIn {
		t.Fatalf("deadIn: d0 %v d1 %v sum %v cat %v head %v, want true true false false false",
			d0.deadIn, viaID.deadIn, sum.deadIn, cat.deadIn, head.deadIn)
	}
	x0, x1 := randInput(rng, 3, 4), randInput(rng, 3, 4)
	if _, err := net.Forward([]*tensor.Tensor{x0, x1}, true); err != nil {
		t.Fatal(err)
	}
	net.ZeroGrads()
	dOut := randInput(rng, 3, 2)
	if err := net.Backward(dOut); err != nil {
		t.Fatal(err)
	}
	// By hand: d(cat) = dOut·Wheadᵀ; columns 4…7 reach d0 through sum,
	// columns 8…11 reach d1.
	dCat := tensor.New(3, 12)
	if err := tensor.MatMulTInto(dCat, dOut, head.W.W); err != nil {
		t.Fatal(err)
	}
	for li, l := range []*Dense{d0, viaID} {
		x, off := x0, 4
		if li == 1 {
			x, off = x1, 8
		}
		want := tensor.New(4, 4)
		for s := 0; s < 3; s++ {
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					want.Data[i*4+j] += x.Data[s*4+i] * dCat.Data[s*12+off+j]
				}
			}
		}
		if d := maxAbsDiff(l.W.Grad.Data, want.Data); d > 1e-12 || want.MaxAbs() == 0 {
			t.Errorf("%s: weight gradient off by %g from the hand-computed one (max %g)", l.Name(), d, want.MaxAbs())
		}
	}
}

// TestConvertNetworkSharesNoBuffers: the f32 twin of a network that has
// already been stepped starts with no buffer at all, and stepping it leaves
// every buffer of its source as it was.
func TestConvertNetworkSharesNoBuffers(t *testing.T) {
	for _, c := range stepCases {
		src := newStepper[float64](t, c, 5)
		train := c.data(1, 16)
		if _, err := src.step(train, rangeIdx(0, 8)); err != nil {
			t.Fatal(err)
		}
		net32, err := ConvertNetwork[float32](src.net)
		if err != nil {
			t.Fatal(err)
		}
		if b := net32.bufferBytes(); b != 0 {
			t.Errorf("%s: the converted network starts with %d retained bytes", c.name, b)
		}
		poisonBuffers(src)
		loss32, _ := ConvertLoss[float32](c.loss())
		dst := &stepperOf[float32]{net: net32, loss: loss32, opt: NewAdamOf[float32]()}
		if _, err := dst.step(ConvertData[float32](train), rangeIdx(0, 8)); err != nil {
			t.Fatal(err)
		}
		eachScratch(src, func(s *scratchOf[float64]) {
			for _, b := range s.slots {
				for _, v := range b.Data[:cap(b.Data)] {
					if !math.IsNaN(v) {
						t.Fatalf("%s: stepping the converted network wrote to a buffer of its source", c.name)
					}
				}
			}
			for _, v := range s.index[:cap(s.index)] {
				if v != -1 {
					t.Fatalf("%s: stepping the converted network wrote to an index table of its source", c.name)
				}
			}
			for _, v := range s.index32[:cap(s.index32)] {
				if v != -1 {
					t.Fatalf("%s: stepping the converted network wrote to an index table of its source", c.name)
				}
			}
		})
	}
}

// TestNetworksStepConcurrently is the two-evaluator case: networks built by
// one builder, sharing the loss value and the dataset, train side by side
// (under -race in CI) and end where each ends alone.
func TestNetworksStepConcurrently(t *testing.T) {
	for _, c := range stepCases {
		train, val := c.data(1, 27), c.data(2, 12)
		fit := func(seed int64) []float64 {
			net := c.build(rand.New(rand.NewSource(seed)))
			h, err := Fit(net, c.loss(), metricFor(c), NewAdam(), train, val,
				FitConfig{Epochs: 2, BatchSize: 8, RNG: rand.New(rand.NewSource(seed))})
			if err != nil {
				t.Error(err)
				return nil
			}
			out := append([]float64(nil), h.TrainLoss...)
			for _, p := range net.Params() {
				out = append(out, p.W.Data...)
			}
			return out
		}
		alone := [][]float64{fit(1), fit(2)}
		together := make([][]float64, 2)
		var wg sync.WaitGroup
		for i := range together {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				together[i] = fit(int64(i + 1))
			}(i)
		}
		wg.Wait()
		for i := range alone {
			if !sameBits(alone[i], together[i]) {
				t.Errorf("%s: network %d trained beside another differs from the same network trained alone", c.name, i)
			}
		}
	}
}

func metricFor(c stepCase) Metric {
	if c.classes > 0 {
		return Accuracy{}
	}
	return R2{}
}

// TestSliceIsAView: contiguous rows are handed out without a copy, and
// Evaluate on views scores what Evaluate on gathered copies scores.
func TestSliceIsAView(t *testing.T) {
	c := stepCases[3]
	d := c.data(6, 10)
	v := d.Slice(2, 7)
	if v.N() != 5 || len(v.Targets) != 5 {
		t.Fatalf("Slice(2, 7): %d rows, %d targets", v.N(), len(v.Targets))
	}
	for k, in := range v.Inputs {
		row := d.Inputs[k].Numel() / 10
		if &in.Data[0] != &d.Inputs[k].Data[2*row] || len(in.Data) != 5*row {
			t.Errorf("input %d of the slice does not alias rows 2…6 of its source", k)
		}
	}
	if &v.Targets[0] != &d.Targets[2] {
		t.Error("the slice's targets do not alias its source's")
	}
	g := d.Gather(rangeIdx(2, 7))
	for k := range g.Inputs {
		if !sameBits(g.Inputs[k].Data, v.Inputs[k].Data) || fmt.Sprint(g.Inputs[k].Shape) != fmt.Sprint(v.Inputs[k].Shape) {
			t.Errorf("input %d: the view and the gathered copy differ", k)
		}
	}
}

// TestLossGradientOverwritesEveryElement: the fit loop's form of both losses
// writes every element of a poisoned gradient buffer — MAE's zero for an
// exact prediction included — and agrees with Forward to the bit.
func TestLossGradientOverwritesEveryElement(t *testing.T) {
	nan := func(shape ...int) *tensor.Tensor {
		g := tensor.New(shape...)
		g.Fill(math.NaN())
		return g
	}
	pred := tensor.FromData([]float64{1, 2, 5}, 3, 1)
	targets := []float64{2, 2, 2}
	g := nan(3, 1)
	l := MAE{}.forwardInto(g, pred, targets)
	wl, wg := MAE{}.Forward(pred, targets)
	if l != wl || !sameBits(g.Data, wg.Data) || g.Data[1] != 0 {
		t.Errorf("MAE into a poisoned buffer: loss %v grad %v, want %v %v", l, g.Data, wl, wg.Data)
	}
	logits := randInput(rand.New(rand.NewSource(3)), 4, 3)
	labels := []float64{0, 2, 1, 1}
	g = nan(4, 3)
	l = SoftmaxCrossEntropy{}.forwardInto(g, logits, labels)
	wl, wg = SoftmaxCrossEntropy{}.Forward(logits, labels)
	if l != wl || !sameBits(g.Data, wg.Data) {
		t.Errorf("CE into a poisoned buffer: loss %v grad %v, want %v %v", l, g.Data, wl, wg.Data)
	}
}
