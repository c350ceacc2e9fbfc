package nn

import (
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/tensor"
)

// Float32 gradient checks. Central finite differences in float32 need a much
// larger step than the f64 suite's 1e-5 (the loss itself only carries ~7
// significant digits) and a correspondingly looser tolerance — the f32
// gradcheck contract documented in DESIGN.md §14. The probe loss
// sum(out·probe) is accumulated in float64 so the numeric derivative's noise
// is the forward pass's own f32 rounding, not the reduction's.

const (
	f32Eps = 1e-2
	f32Tol = 5e-2 // relative; see closeGradF32
)

func closeGradF32(a, n float64) bool {
	return math.Abs(a-n) <= 1e-3+f32Tol*math.Max(math.Abs(a), math.Abs(n))
}

// checkLayerGradientsF32 verifies a float32 layer's parameter and input
// gradients against central finite differences of sum(out·probe).
func checkLayerGradientsF32(t *testing.T, l LayerOf[float32], ins []*tensor.TensorOf[float32]) {
	t.Helper()
	shapes := make([][]int, len(ins))
	for i, in := range ins {
		shapes[i] = in.Shape[1:]
	}
	if _, err := l.OutShape(shapes); err != nil {
		t.Fatal(err)
	}
	out := l.Forward(ins, true)
	probe := tensor.NewOf[float32](out.Shape...)
	rng := rand.New(rand.NewSource(99))
	probe.RandNormal(rng, 1)
	lossOf := func() float64 {
		o := l.Forward(ins, true)
		s := 0.0
		for i, v := range o.Data {
			s += float64(v) * float64(probe.Data[i])
		}
		return s
	}
	for _, p := range l.Params() {
		if p.Trainable() {
			p.Grad.Zero()
		}
	}
	dIns := l.Backward(probe)
	for _, p := range l.Params() {
		if !p.Trainable() {
			continue
		}
		idxs := sampleIndices(p.W.Numel(), 16)
		for _, i := range idxs {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + f32Eps
			lp := lossOf()
			p.W.Data[i] = orig - f32Eps
			lm := lossOf()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * f32Eps)
			if !closeGradF32(float64(p.Grad.Data[i]), num) {
				t.Errorf("param %s[%d]: analytic %.6g numeric %.6g", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
	for k, in := range ins {
		idxs := sampleIndices(in.Numel(), 16)
		for _, i := range idxs {
			orig := in.Data[i]
			in.Data[i] = orig + f32Eps
			lp := lossOf()
			in.Data[i] = orig - f32Eps
			lm := lossOf()
			in.Data[i] = orig
			num := (lp - lm) / (2 * f32Eps)
			if !closeGradF32(float64(dIns[k].Data[i]), num) {
				t.Errorf("input %d elem %d: analytic %.6g numeric %.6g", k, i, dIns[k].Data[i], num)
			}
		}
	}
}

func randInputF32(rng *rand.Rand, shape ...int) *tensor.TensorOf[float32] {
	x := tensor.NewOf[float32](shape...)
	x.RandNormal(rng, 1)
	return x
}

// TestGradcheckConv2DF32CrossesKBlock gradchecks the float32 Conv2D whose
// receptive field (3·3·32 = 288 taps) exceeds the GEMM k-block of 240, so
// its products sum more terms than one k-tile holds, in f32.
func TestGradcheckConv2DF32CrossesKBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	l, err := convertLayer[float32](NewConv2D("cv", 3, 3, 32, 4, Same, 0, rng))
	if err != nil {
		t.Fatal(err)
	}
	checkLayerGradientsF32(t, l, []*tensor.TensorOf[float32]{randInputF32(rng, 2, 5, 5, 32)})
}

// TestGradcheckDenseF32CrossesKBlock does the same for Dense with an input
// width past the k-block (300 > 240).
func TestGradcheckDenseF32CrossesKBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	l, err := convertLayer[float32](NewDense("d", 300, 7, 0, rng))
	if err != nil {
		t.Fatal(err)
	}
	checkLayerGradientsF32(t, l, []*tensor.TensorOf[float32]{randInputF32(rng, 4, 300)})
}

// TestGradcheckBatchNormF32 gradchecks the float32 batch-norm (variance and
// normalization are the numerically tenderest kernels at f32).
func TestGradcheckBatchNormF32(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	l, err := convertLayer[float32](NewBatchNorm("bn", 6))
	if err != nil {
		t.Fatal(err)
	}
	checkLayerGradientsF32(t, l, []*tensor.TensorOf[float32]{randInputF32(rng, 8, 4, 4, 6)})
}
