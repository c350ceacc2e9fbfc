package nn

import (
	"math/rand"
	"testing"

	"swtnas/internal/tensor"
)

// Test-only reference implementation: the pre-im2col direct convolution
// loops, kept verbatim so the GEMM path can be checked against them (and
// benchmarked, see conv_bench_test.go). The im2col kernels preserve the
// exact accumulation order of these loops, so the equivalence tests below
// assert bit-identical agreement, not a tolerance.

// directConv2DForward is the old Conv2D forward kernel, serial over the
// whole batch.
func directConv2DForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	b := x.Shape[0]
	out := tensor.New(b, c.outH, c.outW, c.OutC)
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
					y := oy + ky - padH
					if y < 0 || y >= c.inH {
						continue
					}
					for kx := 0; kx < c.KW; kx++ {
						xp := ox + kx - padW
						if xp < 0 || xp >= c.inW {
							continue
						}
						xs := xb[y*inRow+xp*c.InC : y*inRow+xp*c.InC+c.InC]
						wbase := ((ky*c.KW + kx) * c.InC) * c.OutC
						for ci, xv := range xs {
							if xv == 0 {
								continue
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

// directConv2DBackward is the old Conv2D backward kernel, serial over the
// whole batch: returns the input gradient and fills dw/db (accumulating).
func directConv2DBackward(c *Conv2D, x, dOut *tensor.Tensor, dw, db []float64) *tensor.Tensor {
	b := x.Shape[0]
	dIn := tensor.New(x.Shape...)
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
					y := oy + ky - padH
					if y < 0 || y >= c.inH {
						continue
					}
					for kx := 0; kx < c.KW; kx++ {
						xp := ox + kx - padW
						if xp < 0 || xp >= c.inW {
							continue
						}
						base := y*inRow + xp*c.InC
						wbase := ((ky*c.KW + kx) * c.InC) * c.OutC
						for ci := 0; ci < c.InC; ci++ {
							xv := xb[base+ci]
							wr := w[wbase+ci*c.OutC : wbase+(ci+1)*c.OutC]
							dwr := dw[wbase+ci*c.OutC : wbase+(ci+1)*c.OutC]
							s := 0.0
							for f, g := range gslice {
								dwr[f] += xv * g
								s += g * wr[f]
							}
							dxb[base+ci] += s
						}
					}
				}
			}
		}
	}
	return dIn
}

// directConv1DForward is the old Conv1D forward kernel.
func directConv1DForward(c *Conv1D, x *tensor.Tensor) *tensor.Tensor {
	b := x.Shape[0]
	_, pad := c.padOffsets()
	inL, outL, K := c.inW, c.outW, c.KW // the 1-D layer is Conv2D on a height-1 map
	out := tensor.New(b, outL, c.OutC)
	w, bias := c.W.W.Data, c.B.W.Data
	for bi := 0; bi < b; bi++ {
		xb := x.Data[bi*inL*c.InC : (bi+1)*inL*c.InC]
		ob := out.Data[bi*outL*c.OutC : (bi+1)*outL*c.OutC]
		for ol := 0; ol < outL; ol++ {
			oslice := ob[ol*c.OutC : (ol+1)*c.OutC]
			copy(oslice, bias)
			for k := 0; k < K; k++ {
				p := ol + k - pad
				if p < 0 || p >= inL {
					continue
				}
				xs := xb[p*c.InC : (p+1)*c.InC]
				wbase := k * c.InC * c.OutC
				for ci, xv := range xs {
					if xv == 0 {
						continue
					}
					wr := w[wbase+ci*c.OutC : wbase+(ci+1)*c.OutC]
					for f, wv := range wr {
						oslice[f] += xv * wv
					}
				}
			}
		}
	}
	return out
}

// directConv1DBackward is the old Conv1D backward kernel.
func directConv1DBackward(c *Conv1D, x, dOut *tensor.Tensor, dw, db []float64) *tensor.Tensor {
	b := x.Shape[0]
	dIn := tensor.New(x.Shape...)
	_, pad := c.padOffsets()
	inL, outL, K := c.inW, c.outW, c.KW // the 1-D layer is Conv2D on a height-1 map
	w := c.W.W.Data
	for bi := 0; bi < b; bi++ {
		xb := x.Data[bi*inL*c.InC : (bi+1)*inL*c.InC]
		dxb := dIn.Data[bi*inL*c.InC : (bi+1)*inL*c.InC]
		gb := dOut.Data[bi*outL*c.OutC : (bi+1)*outL*c.OutC]
		for ol := 0; ol < outL; ol++ {
			gslice := gb[ol*c.OutC : (ol+1)*c.OutC]
			for f, g := range gslice {
				db[f] += g
			}
			for k := 0; k < K; k++ {
				p := ol + k - pad
				if p < 0 || p >= inL {
					continue
				}
				base := p * c.InC
				wbase := k * c.InC * c.OutC
				for ci := 0; ci < c.InC; ci++ {
					xv := xb[base+ci]
					wr := w[wbase+ci*c.OutC : wbase+(ci+1)*c.OutC]
					dwr := dw[wbase+ci*c.OutC : wbase+(ci+1)*c.OutC]
					s := 0.0
					for f, g := range gslice {
						dwr[f] += xv * g
						s += g * wr[f]
					}
					dxb[base+ci] += s
				}
			}
		}
	}
	return dIn
}

// conv2DCases cover both paddings, the degenerate-valid fallback, and a
// channel count whose patch width (3*3*32 = 288) crosses the GEMM k-block
// boundary.
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
}

// TestConv2DIm2colMatchesDirect pins the im2col/GEMM Conv2D to the direct
// reference, bit for bit, on forward output, input gradient, weight
// gradient and bias gradient.
func TestConv2DIm2colMatchesDirect(t *testing.T) {
	for _, tc := range conv2DCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			c := NewConv2D("cv", tc.kh, tc.kw, tc.inC, tc.outC, tc.pad, 0, rng)
			if _, err := c.OutShape([][]int{{tc.h, tc.w, tc.inC}}); err != nil {
				t.Fatal(err)
			}
			x := tensor.New(tc.b, tc.h, tc.w, tc.inC)
			x.RandNormal(rng, 1)
			g := tensor.New(tc.b, c.outH, c.outW, c.OutC)
			g.RandNormal(rng, 1)

			refOut := directConv2DForward(c, x)
			refDW := make([]float64, c.W.Grad.Numel())
			refDB := make([]float64, c.B.Grad.Numel())
			refDIn := directConv2DBackward(c, x, g, refDW, refDB)

			out := c.Forward([]*tensor.Tensor{x}, true)
			c.W.Grad.Zero()
			c.B.Grad.Zero()
			dIn := c.Backward(g)[0]

			if d := maxAbsDiff(out.Data, refOut.Data); d != 0 {
				t.Errorf("forward differs from direct reference by %g (must be bit-identical)", d)
			}
			if d := maxAbsDiff(dIn.Data, refDIn.Data); d != 0 {
				t.Errorf("input gradient differs from direct reference by %g", d)
			}
			if d := maxAbsDiff(c.W.Grad.Data, refDW); d != 0 {
				t.Errorf("weight gradient differs from direct reference by %g", d)
			}
			if d := maxAbsDiff(c.B.Grad.Data, refDB); d != 0 {
				t.Errorf("bias gradient differs from direct reference by %g", d)
			}
		})
	}
}

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
}

// TestConv1DIm2colMatchesDirect is the 1-D analogue: Conv2D's kernels at
// height 1 against the old direct 1-D loops.
func TestConv1DIm2colMatchesDirect(t *testing.T) {
	for _, tc := range conv1DCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(32))
			c := NewConv1D("cv", tc.k, tc.inC, tc.outC, tc.pad, 0, rng)
			if _, err := c.OutShape([][]int{{tc.l, tc.inC}}); err != nil {
				t.Fatal(err)
			}
			x := tensor.New(tc.b, tc.l, tc.inC)
			x.RandNormal(rng, 1)
			g := tensor.New(tc.b, c.outW, c.OutC)
			g.RandNormal(rng, 1)

			refOut := directConv1DForward(c, x)
			refDW := make([]float64, c.W.Grad.Numel())
			refDB := make([]float64, c.B.Grad.Numel())
			refDIn := directConv1DBackward(c, x, g, refDW, refDB)

			out := c.Forward([]*tensor.Tensor{x}, true)
			c.W.Grad.Zero()
			c.B.Grad.Zero()
			dIn := c.Backward(g)[0]

			if d := maxAbsDiff(out.Data, refOut.Data); d != 0 {
				t.Errorf("forward differs from direct reference by %g (must be bit-identical)", d)
			}
			if d := maxAbsDiff(dIn.Data, refDIn.Data); d != 0 {
				t.Errorf("input gradient differs from direct reference by %g", d)
			}
			if d := maxAbsDiff(c.W.Grad.Data, refDW); d != 0 {
				t.Errorf("weight gradient differs from direct reference by %g", d)
			}
			if d := maxAbsDiff(c.B.Grad.Data, refDB); d != 0 {
				t.Errorf("bias gradient differs from direct reference by %g", d)
			}
		})
	}
}
