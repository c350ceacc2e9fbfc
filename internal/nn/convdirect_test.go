package nn

import (
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/tensor"
)

// Test-only reference implementation: direct convolution loops, serial over
// the whole batch, that the strided-GEMM kernels must reproduce bit for bit.
// They are the pre-GEMM direct loops with every tap taken — a tap outside
// the border multiplies a zero, and a zero input is not skipped — which is
// the arithmetic the kernels define: each output element takes its
// (ky, kx, ci) terms in ascending order from the bias, each weight-gradient
// element its positions in ascending order, each input-gradient element its
// (oy, ox) contributions in ascending order, each of them a dot product in
// its dtype's order. So 0·Inf is NaN here exactly
// where the kernels make it one, and the equivalence tests below assert
// identical bits (any NaN matching any NaN), not a tolerance.

// directConv2DForward is the direct Conv2D forward kernel.
func directConv2DForward[T tensor.Float](c *Conv2DOf[T], x *tensor.TensorOf[T]) *tensor.TensorOf[T] {
	b := x.Shape[0]
	out := tensor.NewOf[T](b, c.outH, c.outW, c.OutC)
	padH, padW := c.padOffsets()
	w, bias := c.W.W.Data, c.B.W.Data
	inRow := c.inW * c.InC
	outRow := c.outW * c.OutC
	for bi := 0; bi < b; bi++ {
		xb := x.Data[bi*c.inH*inRow : (bi+1)*c.inH*inRow]
		ob := out.Data[bi*c.outH*outRow : (bi+1)*c.outH*outRow]
		for oy := 0; oy < c.outH; oy++ {
			for ox := 0; ox < c.outW; ox++ {
				oslice := ob[oy*outRow+ox*c.OutC : oy*outRow+ox*c.OutC+c.OutC]
				copy(oslice, bias)
				for ky := 0; ky < c.KH; ky++ {
					for kx := 0; kx < c.KW; kx++ {
						y, xp := oy+ky-padH, ox+kx-padW
						inside := y >= 0 && y < c.inH && xp >= 0 && xp < c.inW
						wbase := ((ky*c.KW + kx) * c.InC) * c.OutC
						for ci := 0; ci < c.InC; ci++ {
							var xv T
							if inside {
								xv = xb[y*inRow+xp*c.InC+ci]
							}
							wr := w[wbase+ci*c.OutC : wbase+(ci+1)*c.OutC]
							for f, wv := range wr {
								oslice[f] += xv * wv
							}
						}
					}
				}
			}
		}
	}
	return out
}

// directConv2DBackward is the direct Conv2D backward kernel: returns the
// input gradient and fills dw/db (accumulating).
func directConv2DBackward[T tensor.Float](c *Conv2DOf[T], x, dOut *tensor.TensorOf[T], dw, db []T) *tensor.TensorOf[T] {
	b := x.Shape[0]
	dIn := tensor.NewOf[T](x.Shape...)
	padH, padW := c.padOffsets()
	w := c.W.W.Data
	inRow := c.inW * c.InC
	outRow := c.outW * c.OutC
	for bi := 0; bi < b; bi++ {
		xb := x.Data[bi*c.inH*inRow : (bi+1)*c.inH*inRow]
		dxb := dIn.Data[bi*c.inH*inRow : (bi+1)*c.inH*inRow]
		gb := dOut.Data[bi*c.outH*outRow : (bi+1)*c.outH*outRow]
		for oy := 0; oy < c.outH; oy++ {
			for ox := 0; ox < c.outW; ox++ {
				gslice := gb[oy*outRow+ox*c.OutC : oy*outRow+ox*c.OutC+c.OutC]
				for f, g := range gslice {
					db[f] += g
				}
				for ky := 0; ky < c.KH; ky++ {
					for kx := 0; kx < c.KW; kx++ {
						y, xp := oy+ky-padH, ox+kx-padW
						inside := y >= 0 && y < c.inH && xp >= 0 && xp < c.inW
						base := y*inRow + xp*c.InC
						wbase := ((ky*c.KW + kx) * c.InC) * c.OutC
						for ci := 0; ci < c.InC; ci++ {
							var xv T
							if inside {
								xv = xb[base+ci]
							}
							wr := w[wbase+ci*c.OutC : wbase+(ci+1)*c.OutC]
							dwr := dw[wbase+ci*c.OutC : wbase+(ci+1)*c.OutC]
							for f, g := range gslice {
								dwr[f] += xv * g
							}
							if inside {
								dxb[base+ci] += directDot(gslice, wr)
							}
						}
					}
				}
			}
		}
	}
	return dIn
}

// directDot is one input-gradient dot product in its dtype's order:
// f-ascending from zero in float64; in float32 four strided lanes from zero
// summed as (s0+s2)+(s1+s3), then the tail f-ascending (tensor.GemmBT).
func directDot[T tensor.Float](g, w []T) T {
	if tensor.DTypeFor[T]() == tensor.F64 {
		var s T
		for f := range g {
			s += g[f] * w[f]
		}
		return s
	}
	var p [4]T
	f4 := len(g) &^ 3
	for f := 0; f < f4; f++ {
		p[f%4] += g[f] * w[f]
	}
	s := (p[0] + p[2]) + (p[1] + p[3])
	for f := f4; f < len(g); f++ {
		s += g[f] * w[f]
	}
	return s
}

// firstDiff is the first index at which got and want differ in their bits,
// any NaN matching any NaN, or -1.
func firstDiff[T tensor.Float](got, want []T) int {
	for i := range want {
		g, w := float64(got[i]), float64(want[i])
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

// withSpecials overwrites a few elements of p with ±Inf and NaN — about
// one in seven, at positions drawn from rng.
func withSpecials[T tensor.Float](rng *rand.Rand, p []T) {
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range p {
		if rng.Intn(7) == 0 {
			p[i] = T(specials[rng.Intn(len(specials))])
		}
	}
}

// conv2DCases cover both paddings, the degenerate-valid fallback, a channel
// count whose patch width (3*3*32 = 288) crosses the GEMM k-block boundary,
// and the shapes the conv search spaces issue: the cifar10 first layer both
// ways at its batch of 64 (a valid row is 6 outputs, not a multiple of the
// kernels' 4-row tile), the mnist 5×5 first layer, the 2×2 and 1×1 maps of
// deep cifar10 layers, a receptive-field row of KW·InC = 288 taps, wider
// than the k-block, and an output map one wide.
var conv2DCases = []struct {
	name      string
	kh, kw    int
	inC, outC int
	pad       Padding
	b, h, w   int
}{
	{"same-3x3", 3, 3, 4, 8, Same, 3, 9, 9},
	{"valid-3x3", 3, 3, 2, 5, Valid, 2, 7, 6},
	{"even-kernel-same", 2, 2, 3, 4, Same, 2, 5, 5},
	{"degenerate-valid", 5, 5, 2, 3, Valid, 2, 3, 3},
	{"wide-channels-tiled", 3, 3, 32, 6, Same, 1, 6, 6},
	{"batch-1", 3, 3, 4, 8, Same, 1, 8, 8},
	{"cifar10-8x8x3-same", 3, 3, 3, 16, Same, 64, 8, 8},
	{"cifar10-8x8x3-valid", 3, 3, 3, 16, Valid, 64, 8, 8},
	{"mnist-10x10x1-k5-same", 5, 5, 1, 8, Same, 8, 10, 10},
	{"mnist-10x10x1-k5-valid", 5, 5, 1, 8, Valid, 8, 10, 10},
	{"map-2x2", 3, 3, 16, 4, Same, 5, 2, 2},
	{"map-1x1", 3, 3, 16, 4, Same, 5, 1, 1},
	{"wide-row-288", 3, 3, 96, 5, Same, 2, 4, 4},
	{"one-wide-map", 3, 3, 2, 4, Valid, 3, 6, 3},
}

// TestConv2DIm2colMatchesDirect (named for the lowering the strided GEMMs
// replaced, whose bits they keep) pins Conv2D to the direct reference, bit
// for bit, on forward output, input gradient, weight gradient and bias
// gradient, at both element types, on finite data and on inputs and weights
// holding ±Inf and NaN.
func TestConv2DIm2colMatchesDirect(t *testing.T) {
	for _, tc := range conv2DCases {
		t.Run(tc.name, func(t *testing.T) {
			l := func() Layer {
				return NewConv2D("cv", tc.kh, tc.kw, tc.inC, tc.outC, tc.pad, 0, rand.New(rand.NewSource(31)))
			}
			eachConvInput(t, func(t *testing.T, specials bool) {
				matchDirect[float64](t, l(), tc.b, []int{tc.h, tc.w, tc.inC}, specials)
				matchDirect[float32](t, l(), tc.b, []int{tc.h, tc.w, tc.inC}, specials)
			})
		})
	}
}

// conv1DCases: both paddings, the degenerate-valid fallback, a receptive
// field of KW·InC = 288 taps, and the nt3 first layer.
var conv1DCases = []struct {
	name      string
	k         int
	inC, outC int
	pad       Padding
	b, l      int
}{
	{"same-5", 5, 2, 6, Same, 3, 32},
	{"valid-3", 3, 3, 4, Valid, 2, 11},
	{"degenerate-valid", 7, 1, 2, Valid, 2, 4},
	{"wide-channels-tiled", 3, 96, 5, Same, 1, 12},
	{"batch-1", 5, 1, 20, Same, 1, 64},
	{"nt3-256x1-k7-valid", 7, 1, 16, Valid, 4, 256},
}

// TestConv1DIm2colMatchesDirect is the 1-D analogue: Conv1D against the
// direct loops on the [B, 1, L, C] view of its input.
func TestConv1DIm2colMatchesDirect(t *testing.T) {
	for _, tc := range conv1DCases {
		t.Run(tc.name, func(t *testing.T) {
			l := func() Layer {
				return NewConv1D("cv", tc.k, tc.inC, tc.outC, tc.pad, 0, rand.New(rand.NewSource(32)))
			}
			eachConvInput(t, func(t *testing.T, specials bool) {
				matchDirect[float64](t, l(), tc.b, []int{tc.l, tc.inC}, specials)
				matchDirect[float32](t, l(), tc.b, []int{tc.l, tc.inC}, specials)
			})
		})
	}
}

// eachConvInput runs f on finite inputs and on inputs and weights holding
// ±Inf and NaN.
func eachConvInput(t *testing.T, f func(t *testing.T, specials bool)) {
	t.Run("finite", func(t *testing.T) { f(t, false) })
	t.Run("inf-nan", func(t *testing.T) { f(t, true) })
}

// matchDirect converts the float64 conv layer l to T, runs one forward and
// backward of it on a seeded batch of per-sample shape in, and wants the
// direct reference's bits in all four results. With specials about one in
// fifty elements of the input and of the weights is ±Inf or NaN: a zero tap
// outside the border times an infinite weight must come out NaN.
func matchDirect[T tensor.Float](t *testing.T, l Layer, batch int, in []int, specials bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	cl, err := convertLayer[T](l)
	if err != nil {
		t.Fatal(err)
	}
	outShape, err := cl.OutShape([][]int{in})
	if err != nil {
		t.Fatal(err)
	}
	var c *Conv2DOf[T]
	switch v := cl.(type) {
	case *Conv2DOf[T]:
		c = v
	case *Conv1DOf[T]:
		c = &v.Conv2DOf
	}
	x := tensor.NewOf[T](append([]int{batch}, in...)...)
	x.RandNormal(rng, 1)
	g := tensor.NewOf[T](append([]int{batch}, outShape...)...)
	g.RandNormal(rng, 1)
	if specials {
		withSpecials(rng, x.Data)
		withSpecials(rng, c.W.W.Data)
	}

	refOut := directConv2DForward(c, x)
	refDW := make([]T, c.W.Grad.Numel())
	refDB := make([]T, c.B.Grad.Numel())
	refDIn := directConv2DBackward(c, x, g, refDW, refDB)

	out := append([]T(nil), cl.Forward([]*tensor.TensorOf[T]{x}, true).Data...)
	c.W.Grad.Zero()
	c.B.Grad.Zero()
	dIn := cl.Backward(g)[0]

	dt := tensor.DTypeFor[T]()
	for _, r := range []struct {
		what      string
		got, want []T
	}{
		{"forward", out, refOut.Data},
		{"input gradient", dIn.Data, refDIn.Data},
		{"weight gradient", c.W.Grad.Data, refDW},
		{"bias gradient", c.B.Grad.Data, refDB},
	} {
		if i := firstDiff(r.got, r.want); i >= 0 {
			t.Errorf("%s %s: element %d = %v, direct reference %v (must be bit-identical)", dt, r.what, i, r.got[i], r.want[i])
		}
	}
}
