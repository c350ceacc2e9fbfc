package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// allLayersNetwork builds a two-input network containing one instance of
// every built-in layer type — the closed set convertLayer switches over.
func allLayersNetwork(t *testing.T, rng *rand.Rand) *Network {
	t.Helper()
	net := NewNetwork([]int{8, 8, 3}, []int{16, 2})
	cv := net.MustAdd(NewConv2D("cv2", 3, 3, 3, 4, Same, 1e-4, rng), GraphInput(0))
	bn := net.MustAdd(NewBatchNorm("bn", 4), cv)
	ac := net.MustAdd(NewActivation("relu", ReLU), bn)
	id := net.MustAdd(NewIdentity("id"), ac)
	ad := net.MustAdd(NewAdd("add"), ac, id)
	mp := net.MustAdd(NewMaxPool2D("mp2", 2, 2), ad)
	ap := net.MustAdd(NewAvgPool2D("ap2", 2, 2), mp)
	ga := net.MustAdd(NewGlobalAvgPool("gap"), ap)
	cw := net.MustAdd(NewConv1D("cv1", 3, 2, 4, Same, 0, rng), GraphInput(1))
	m1 := net.MustAdd(NewMaxPool1D("mp1", 2, 2), cw)
	fl := net.MustAdd(NewFlatten("fl"), m1)
	dn := net.MustAdd(NewDense("d1", 32, 4, 0, rng), fl)
	dr := net.MustAdd(NewDropout("drop", 0.25, rng), dn)
	cat := net.MustAdd(NewConcat("cat"), ga, dr)
	net.MustAdd(NewDense("head", 8, 3, 0, rng), cat)
	return net
}

// TestConvertNetworkCoversAllLayers pins the closed convertLayer switch
// against the built-in layer set: a network containing every layer type must
// convert to float32 with every parameter tensor carried over exactly (f64 →
// f32 rounds once; the check is against that rounding, bit for bit), and the
// converted network must run forward at both batch-norm modes. A layer type
// missing from the switch fails here, not deep inside an f32 search.
func TestConvertNetworkCoversAllLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := allLayersNetwork(t, rng)
	net32, err := ConvertNetwork[float32](net)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(net32.Layers()), len(net.Layers()); got != want {
		t.Fatalf("converted network has %d layers, original %d", got, want)
	}
	p64 := net.Params()
	p32 := net32.Params()
	if len(p32) != len(p64) {
		t.Fatalf("converted network has %d params, original %d", len(p32), len(p64))
	}
	for i, p := range p64 {
		q := p32[i]
		if q.Name != p.Name || q.L2 != p.L2 || q.Trainable() != p.Trainable() {
			t.Fatalf("param %d: metadata %q/%g/%v != %q/%g/%v",
				i, q.Name, q.L2, q.Trainable(), p.Name, p.L2, p.Trainable())
		}
		for j, v := range p.W.Data {
			if q.W.Data[j] != float32(v) {
				t.Fatalf("param %s[%d]: converted %g, want float32(%g)", p.Name, j, q.W.Data[j], v)
			}
		}
	}
	ins := []*tensor.TensorOf[float32]{tensor.NewOf[float32](5, 8, 8, 3), tensor.NewOf[float32](5, 16, 2)}
	for _, in := range ins {
		in.RandNormal(rng, 1)
	}
	for _, training := range []bool{true, false} {
		out, err := net32.Forward(ins, training)
		if err != nil {
			t.Fatalf("training=%v: %v", training, err)
		}
		for _, v := range out.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("training=%v: non-finite output %g", training, v)
			}
		}
	}
}

// fakeLayer is a layer type outside the built-in set; conversion must fail
// on it rather than silently dropping the layer.
type fakeLayer struct{ IdentityOf[float64] }

func TestConvertNetworkRejectsUnknownLayer(t *testing.T) {
	net := NewNetwork([]int{3})
	net.MustAdd(&fakeLayer{}, GraphInput(0))
	if _, err := ConvertNetwork[float32](net); err == nil {
		t.Fatal("ConvertNetwork accepted a layer type outside the closed set")
	}
}

func TestConvertLossAndMetric(t *testing.T) {
	if _, err := ConvertLoss[float32](SoftmaxCrossEntropy{}); err != nil {
		t.Errorf("SoftmaxCrossEntropy: %v", err)
	}
	if _, err := ConvertLoss[float32](MAE{}); err != nil {
		t.Errorf("MAE: %v", err)
	}
	if _, err := ConvertMetric[float32](Accuracy{}); err != nil {
		t.Errorf("Accuracy: %v", err)
	}
	if _, err := ConvertMetric[float32](R2{}); err != nil {
		t.Errorf("R2: %v", err)
	}
}

// convertedConv2DWide is runConv2DWide's float32 twin: the same seeded f64
// layer converted once, so the receptive field (3*3*32 = 288 taps) crosses
// the GEMM k-block in float32 too.
func convertedConv2DWide(t *testing.T, b int) (*tensor.TensorOf[float32], *tensor.TensorOf[float32], []float32, []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	l, err := convertLayer[float32](NewConv2D("cv", 3, 3, 32, 6, Same, 0, rng))
	if err != nil {
		t.Fatal(err)
	}
	c := l.(*Conv2DOf[float32])
	if _, err := c.OutShape([][]int{{6, 6, 32}}); err != nil {
		t.Fatal(err)
	}
	x := tensor.NewOf[float32](b, 6, 6, 32)
	x.RandNormal(rng, 1)
	out := c.Forward([]*tensor.TensorOf[float32]{x}, true)
	g := tensor.NewOf[float32](out.Shape...)
	g.RandNormal(rng, 1)
	dIn := c.Backward(g)[0]
	return out, dIn, c.W.Grad.Data, c.B.Grad.Data
}

func convertedBatchNorm(t *testing.T, b int) (*tensor.TensorOf[float32], *tensor.TensorOf[float32], []float32, []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	l, err := convertLayer[float32](NewBatchNorm("bn", 5))
	if err != nil {
		t.Fatal(err)
	}
	bn := l.(*BatchNormOf[float32])
	if _, err := bn.OutShape([][]int{{7, 7, 5}}); err != nil {
		t.Fatal(err)
	}
	x := tensor.NewOf[float32](b, 7, 7, 5)
	x.RandNormal(rng, 1)
	out := bn.Forward([]*tensor.TensorOf[float32]{x}, true)
	g := tensor.NewOf[float32](out.Shape...)
	g.RandNormal(rng, 1)
	dIn := bn.Backward(g)[0]
	return out, dIn, bn.Gamma.Grad.Data, bn.Beta.Grad.Data
}

// TestParallelKernelsMatchSerialF32 is the float32 leg of the per-dtype
// determinism contract (DESIGN.md §14): Conv2D (k-block-crossing) and
// BatchNorm must produce bit-identical outputs and input gradients at any
// worker count, and exactly equal parameter gradients — same fixed reduction
// order as the f64 kernels, just in float32 arithmetic. The grain is
// lowered as in TestParallelKernelsMatchSerial, and each parallel leg must
// report its splits: the convolution's three sharded loops; BatchNorm's two
// element-wise passes, and at batch 37 (1813 rows) its three blocked
// reductions as well.
func TestParallelKernelsMatchSerialF32(t *testing.T) {
	kernels := []struct {
		name           string
		run            func(t *testing.T, b int) (*tensor.TensorOf[float32], *tensor.TensorOf[float32], []float32, []float32)
		split1, splitN int64 // loops that split at batch 1 and at batch 37
	}{
		{"Conv2DWide", convertedConv2DWide, 3, 3},
		{"BatchNorm", convertedBatchNorm, 2, 5},
	}
	splitEverything(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, k := range kernels {
		for _, batch := range []int{1, 37} {
			t.Run(fmt.Sprintf("%s/batch=%d", k.name, batch), func(t *testing.T) {
				parallel.SetWorkers(1)
				out0, dIn0, dw0, db0 := k.run(t, batch)
				dw0 = append([]float32(nil), dw0...)
				db0 = append([]float32(nil), db0...)
				want := k.splitN
				if batch == 1 {
					want = k.split1
				}
				for _, workers := range []int{2, 4, 7} {
					parallel.SetWorkers(workers)
					var out, dIn *tensor.TensorOf[float32]
					var dw, db []float32
					if split, _ := splitCalls(func() { out, dIn, dw, db = k.run(t, batch) }); split != want {
						t.Fatalf("workers=%d: %d loops split, want %d: the parallel leg did not run", workers, split, want)
					}
					if d := maxAbsDiffF32(out.Data, out0.Data); d != 0 {
						t.Errorf("workers=%d: forward differs from serial by %g (must be bit-identical)", workers, d)
					}
					if d := maxAbsDiffF32(dIn.Data, dIn0.Data); d != 0 {
						t.Errorf("workers=%d: input gradient differs from serial by %g (must be bit-identical)", workers, d)
					}
					if d := maxAbsDiffF32(dw, dw0); d != 0 {
						t.Errorf("workers=%d: weight gradient differs from serial by %g (must be bit-identical)", workers, d)
					}
					if d := maxAbsDiffF32(db, db0); d != 0 {
						t.Errorf("workers=%d: bias gradient differs from serial by %g (must be bit-identical)", workers, d)
					}
				}
			})
		}
	}
}

func maxAbsDiffF32(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}
