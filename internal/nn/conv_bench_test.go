package nn

import (
	"math/rand"
	"testing"

	"swtnas/internal/tensor"
)

// convStepShapes are the convolutions the three conv search spaces issue, at
// their batch sizes and element types: the cifar10 and mnist first layers
// (f32, no input gradient: nobody consumes it), the small maps deeper cifar10
// layers reach after pooling, a receptive-field row wider than the GEMM
// k-block, and the nt3 first layer (f64, as its searches train).
var convStepShapes = []struct {
	name      string
	kh, kw    int
	inC, outC int
	pad       Padding
	b, h, w   int
	f64       bool
	first     bool
}{
	{"cifar10-8x8x3-same", 3, 3, 3, 16, Same, 64, 8, 8, false, true},
	{"cifar10-8x8x3-valid", 3, 3, 3, 16, Valid, 64, 8, 8, false, true},
	{"mnist-10x10x1-k5", 5, 5, 1, 16, Same, 64, 10, 10, false, true},
	{"map-4x4x16", 3, 3, 16, 16, Same, 64, 4, 4, false, false},
	{"map-2x2x16", 3, 3, 16, 4, Same, 64, 2, 2, false, false},
	{"map-1x1x16", 3, 3, 16, 4, Same, 64, 1, 1, false, false},
	{"wide-4x4x96", 3, 3, 96, 8, Same, 64, 4, 4, false, false},
	{"nt3-256x1-k7", 1, 7, 1, 16, Valid, 32, 1, 256, true, true},
}

// BenchmarkConv2DLayerStep is one training step of one conv layer — Forward
// then Backward, the input gradient included unless the layer is a first
// layer — at every shape in convStepShapes, on the running body and with the
// process's worker limit. CI runs it with -benchtime 1x as a smoke test.
func BenchmarkConv2DLayerStep(b *testing.B) {
	for _, s := range convStepShapes {
		b.Run(s.name, func(b *testing.B) {
			if s.f64 {
				benchConvStep[float64](b, s.kh, s.kw, s.inC, s.outC, s.pad, s.b, s.h, s.w, s.first)
			} else {
				benchConvStep[float32](b, s.kh, s.kw, s.inC, s.outC, s.pad, s.b, s.h, s.w, s.first)
			}
		})
	}
}

func benchConvStep[T tensor.Float](b *testing.B, kh, kw, inC, outC int, pad Padding, batch, h, w int, first bool) {
	rng := rand.New(rand.NewSource(53))
	l, err := convertLayer[T](NewConv2D("cv", kh, kw, inC, outC, pad, 0, rng))
	if err != nil {
		b.Fatal(err)
	}
	c := l.(*Conv2DOf[T])
	if _, err := c.OutShape([][]int{{h, w, inC}}); err != nil {
		b.Fatal(err)
	}
	c.deadIn = first
	x := tensor.NewOf[T](batch, h, w, inC)
	x.RandNormal(rng, 1)
	g := tensor.NewOf[T](batch, c.outH, c.outW, outC)
	g.RandNormal(rng, 1)
	in := []*tensor.TensorOf[T]{x}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(in, true)
		c.Backward(g)
	}
}
