package nn

import (
	"fmt"
	"math/rand"

	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// Conv2D lowers to im2col + GEMM, and Conv1D is Conv2D on a height-1 map, so
// there is one convolution kernel set: the forward pass gathers
// every input patch into a [rows, KH*KW*InC] buffer (one row per output
// position, batch-major) and multiplies it by the [KH*KW*InC, OutC] weight
// matrix with the blocked tensor.Gemm kernel. Backward reuses the same
// kernel family: dW += patchesᵀ·dOut (tensor.GemmAT on the forward patch
// buffer) and dPatches = dOut·Wᵀ (tensor.GemmBT) followed by a col2im
// scatter back onto the input gradient. One cache-tiled kernel therefore
// serves conv and dense alike. The unit of sharding is a patch row (a strip
// of them for im2col/col2im), not a sample, so a call splits on its work
// and not on its batch size: a batch of 64 at 8→16 filters on 16×16 maps
// does, a batch of 1 of the same layer is 0.3 ms of work in all and runs
// whole on the caller, where it measures faster (parallel.MinChunk).
//
// Determinism: patch rows store their (ky, kx, ci) taps in ascending order,
// the GEMM reduction runs in ascending tile order, and col2im accumulates
// each input element's contributions in ascending (oy, ox) order — the exact
// per-element order of a serial (oy, ox, ky, kx, ci) scatter — so outputs
// AND gradients are bit-identical to the pre-GEMM direct kernels at
// workers=1 and identical across worker counts (the direct loops survive as
// a test-only reference in convdirect_test.go).
//
// The cols/dcols patch matrices come from a convColsOf (buffers.go) shared by
// every conv layer of a network, so patch memory is depth-independent. A
// network's first layer, whose input gradient nobody consumes, skips GemmBT
// and col2im altogether.

func zero[T tensor.Float](p []T) {
	for i := range p {
		p[i] = 0
	}
}

// convOf is a convolution: Network.Add hands it the network-shared patch
// matrices after shape inference, so the layer knows its patch-matrix size.
type convOf[T tensor.Float] interface {
	setCols(a *convColsOf[T])
}

// Padding selects the convolution border mode, mirroring Keras "valid"/"same".
type Padding int

// Border modes.
const (
	Valid Padding = iota
	Same
)

// String returns the Keras padding name.
func (p Padding) String() string {
	if p == Same {
		return "same"
	}
	return "valid"
}

// Conv2D is a stride-1 2-D convolution over [B, H, W, C] inputs with weights
// [KH, KW, C, F].
//
// If "valid" padding would produce an empty output (the input is smaller
// than the kernel, which random NAS candidates can reach after aggressive
// pooling), the layer degrades to "same" padding instead of failing; the
// chosen mode is visible via EffectivePadding. This mirrors the guard rails
// NAS frameworks put around degenerate candidates.
type Conv2DOf[T tensor.Float] struct {
	stepBufsOf[T]
	name       string
	KH, KW     int
	InC, OutC  int
	Pad        Padding
	effPad     Padding
	W, B       *ParamOf[T]
	inH, inW   int
	outH, outW int
	lastIn     *tensor.TensorOf[T]
	// cols is shared with every other conv layer of the owning Network; a
	// standalone layer makes its own on first Forward.
	cols *convColsOf[T]
}

// NewConv2D creates a conv layer with He-normal weights (ReLU-friendly).
func NewConv2D(name string, kh, kw, inC, outC int, pad Padding, l2 float64, rng *rand.Rand) *Conv2D {
	w := tensor.New(kh, kw, inC, outC)
	w.HeNormal(rng, kh*kw*inC)
	return &Conv2D{
		name: name, KH: kh, KW: kw, InC: inC, OutC: outC, Pad: pad,
		W: &Param{Name: name + "/W", W: w, Grad: tensor.New(kh, kw, inC, outC), L2: l2},
		B: &Param{Name: name + "/b", W: tensor.New(outC), Grad: tensor.New(outC)},
	}
}

func (c *Conv2DOf[T]) Name() string          { return c.name }
func (c *Conv2DOf[T]) Params() []*ParamOf[T] { return []*ParamOf[T]{c.W, c.B} }

// EffectivePadding returns the padding actually applied after shape
// inference (it differs from Pad only for the degenerate-valid fallback).
func (c *Conv2DOf[T]) EffectivePadding() Padding { return c.effPad }

func (c *Conv2DOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("conv2d wants 1 input, got %d", len(in))
	}
	s := in[0]
	if len(s) != 3 || s[2] != c.InC {
		return nil, fmt.Errorf("conv2d wants input (H, W, %d), got %s", c.InC, tensor.ShapeString(s))
	}
	c.inH, c.inW = s[0], s[1]
	c.effPad = c.Pad
	if c.effPad == Valid && (c.inH < c.KH || c.inW < c.KW) {
		c.effPad = Same
	}
	if c.effPad == Same {
		c.outH, c.outW = c.inH, c.inW
	} else {
		c.outH, c.outW = c.inH-c.KH+1, c.inW-c.KW+1
	}
	return []int{c.outH, c.outW, c.OutC}, nil
}

func (c *Conv2DOf[T]) padOffsets() (int, int) {
	if c.effPad == Same {
		return (c.KH - 1) / 2, (c.KW - 1) / 2
	}
	return 0, 0
}

// kdim is the patch width of the im2col buffer: one row per output position
// holds every (ky, kx, ci) tap.
func (c *Conv2DOf[T]) kdim() int { return c.KH * c.KW * c.InC }

func (c *Conv2DOf[T]) setCols(a *convColsOf[T]) {
	c.cols = a
	a.perSample = max(a.perSample, c.outH*c.outW*c.kdim())
}

// Forward lowers x to im2col patches and runs one blocked GEMM against the
// weight matrix.
func (c *Conv2DOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	x := in[0]
	b := x.Shape[0]
	c.lastIn = x
	if c.cols == nil {
		c.setCols(&convColsOf[T]{})
	}
	rows, kdim := b*c.outH*c.outW, c.kdim()
	cols := c.cols.cols(b, rows*kdim)
	c.im2col(x, cols)
	c.cols.owner = c
	out := c.buf(slotOut, b, c.outH, c.outW, c.OutC)
	tensor.Gemm(out.Data, cols, c.W.W.Data, rows, kdim, c.OutC, c.B.W.Data)
	return out
}

// im2col writes one patch row per (sample, oy, ox) output position into
// cols, taps in (ky, kx, ci) order with zeros outside the border. Work is
// sharded over (sample, oy) strips; each strip is written by exactly one
// shard.
func (c *Conv2DOf[T]) im2col(x *tensor.TensorOf[T], cols []T) {
	padH, padW := c.padOffsets()
	inRow := c.inW * c.InC
	strip := c.outW * c.kdim()
	parallel.For(x.Shape[0]*c.outH, parallel.MinChunk(strip*costCopy), func(lo, hi int) {
		for s := lo; s < hi; s++ {
			bi, oy := s/c.outH, s%c.outH
			xb := x.Data[bi*c.inH*inRow : (bi+1)*c.inH*inRow]
			row := cols[s*strip : (s+1)*strip]
			pos := 0
			for ox := 0; ox < c.outW; ox++ {
				for ky := 0; ky < c.KH; ky++ {
					seg := row[pos : pos+c.KW*c.InC]
					pos += c.KW * c.InC
					y := oy + ky - padH
					if y < 0 || y >= c.inH {
						zero(seg)
						continue
					}
					// Clamp the kx taps to the valid input columns; the
					// in-range span is one contiguous copy.
					kx0, kx1 := padW-ox, c.inW+padW-ox
					if kx0 < 0 {
						kx0 = 0
					}
					if kx1 > c.KW {
						kx1 = c.KW
					}
					if kx0 >= kx1 {
						zero(seg)
						continue
					}
					zero(seg[:kx0*c.InC])
					src := (y*c.inW + ox + kx0 - padW) * c.InC
					copy(seg[kx0*c.InC:kx1*c.InC], xb[src:src+(kx1-kx0)*c.InC])
					zero(seg[kx1*c.InC:])
				}
			}
		}
	})
}

// Backward computes all three gradients through the GEMM kernels: the bias
// gradient is a serial column sum of dOut (cheap and order-stable), the
// weight gradient is patchesᵀ·dOut on the forward im2col matrix, and the
// input gradient — when it has a consumer — is dOut·Wᵀ scattered back
// through col2im onto a cleared buffer shaped like the cached input. When a
// deeper conv layer has overwritten the shared patch matrix since this
// layer's Forward, the patches are re-gathered from the cached input first;
// the deepest conv runs backward first and always hits.
func (c *Conv2DOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	x := c.lastIn
	b := x.Shape[0]
	rows, kdim := b*c.outH*c.outW, c.kdim()
	db := c.B.Grad.Data
	for i := 0; i < rows; i++ {
		for f, g := range dOut.Data[i*c.OutC : (i+1)*c.OutC] {
			db[f] += g
		}
	}
	cols := c.cols.cols(b, rows*kdim)
	if c.cols.owner != c {
		c.im2col(x, cols)
		c.cols.owner = c
	}
	tensor.GemmAT(c.W.Grad.Data, cols, dOut.Data, rows, kdim, c.OutC)
	if c.deadIn {
		return c.grads(nil)
	}
	dcols := c.cols.dcols(b, rows*kdim)
	tensor.GemmBT(dcols, dOut.Data, c.W.W.Data, rows, c.OutC, kdim)
	dIn := c.buf(slotDIn, x.Shape...)
	dIn.Zero()
	c.col2im(dcols, dIn)
	return c.grads(dIn)
}

// col2im accumulates the patch gradients back onto the input positions they
// were gathered from. Work shards over *input rows* across the whole batch
// (b·inH strips); each input row is written by exactly one shard. For an
// input row y the contributing output
// rows satisfy ky = y + padH - oy ∈ [0, KH); walking them oy-ascending, then
// ox-ascending, accumulates every input element's contributions in exactly
// the order the serial (oy, ox, ky, kx, ci) scatter did, keeping input
// gradients bit-identical for any worker count.
func (c *Conv2DOf[T]) col2im(dcols []T, dIn *tensor.TensorOf[T]) {
	padH, padW := c.padOffsets()
	inRow := c.inW * c.InC
	kdim := c.kdim()
	kw := c.KW * c.InC
	parallel.For(dIn.Shape[0]*c.inH, parallel.MinChunk(c.outW*kdim*costStream), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			bi, y := r/c.inH, r%c.inH
			drow := dIn.Data[r*inRow : (r+1)*inRow]
			oy0, oy1 := y+padH-c.KH+1, y+padH
			if oy0 < 0 {
				oy0 = 0
			}
			if oy1 > c.outH-1 {
				oy1 = c.outH - 1
			}
			for oy := oy0; oy <= oy1; oy++ {
				ky := y + padH - oy
				base := ((bi*c.outH+oy)*c.outW)*kdim + ky*kw
				for ox := 0; ox < c.outW; ox++ {
					seg := dcols[base+ox*kdim : base+ox*kdim+kw]
					kx0, kx1 := padW-ox, c.inW+padW-ox
					if kx0 < 0 {
						kx0 = 0
					}
					if kx1 > c.KW {
						kx1 = c.KW
					}
					for kx := kx0; kx < kx1; kx++ {
						xp := ox + kx - padW
						d := drow[xp*c.InC : (xp+1)*c.InC]
						for ci, v := range seg[kx*c.InC : (kx+1)*c.InC] {
							d[ci] += v
						}
					}
				}
			}
		}
	})
}

// Conv1D is a stride-1 1-D convolution over [B, L, C] inputs with weights
// [K, C, F]: Conv2D with KH = 1 and KW = K on the [B, 1, L, C] view of its
// input. The kernels read only the weights' data, whose [1, K, C, F] layout is
// the [K, C, F] one, so the tensor keeps the 1-D shape that weight-transfer
// signatures and checkpoints see. It powers the NT3-like gene-sequence search
// space. The same degenerate-valid fallback as Conv2D applies.
type Conv1DOf[T tensor.Float] struct{ Conv2DOf[T] }

// NewConv1D creates a 1-D conv layer with He-normal weights.
func NewConv1D(name string, k, inC, outC int, pad Padding, l2 float64, rng *rand.Rand) *Conv1D {
	c := &Conv1D{*NewConv2D(name, 1, k, inC, outC, pad, l2, rng)}
	c.W.W.Shape, c.W.Grad.Shape = []int{k, inC, outC}, []int{k, inC, outC}
	return c
}

func (c *Conv1DOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("conv1d wants 1 input, got %d", len(in))
	}
	s := in[0]
	if len(s) != 2 || s[1] != c.InC {
		return nil, fmt.Errorf("conv1d wants input (L, %d), got %s", c.InC, tensor.ShapeString(s))
	}
	out, _ := c.Conv2DOf.OutShape([][]int{{1, s[0], s[1]}}) // a checked (1, L, C) shape always infers
	return out[1:], nil
}

// Forward runs Conv2D's; Backward is Conv2D's as it is, its input gradient
// taking the shape of the cached [B, L, C] input.
func (c *Conv1DOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	return squeezeH(c.Conv2DOf.Forward(in, training))
}
