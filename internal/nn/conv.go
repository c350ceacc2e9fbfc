package nn

import (
	"fmt"
	"math/rand"

	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// The convolution layers lower to im2col + GEMM: the forward pass gathers
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

// convOf is what convBaseOf needs of the convolution embedding it. setCols
// adopts the network-shared patch matrices: Network.Add calls it after shape
// inference, so the layer knows its patch-matrix size.
type convOf[T tensor.Float] interface {
	LayerOf[T]
	setCols(a *convColsOf[T])
	im2col(x *tensor.TensorOf[T], cols []T)
	col2im(dcols []T, dIn *tensor.TensorOf[T])
}

// convBaseOf is the half of a convolution that does not depend on its rank:
// the buffers, the cached input, and the two passes in terms of im2col and
// col2im over a rows × kdim patch matrix.
type convBaseOf[T tensor.Float] struct {
	stepBufsOf[T]
	lastIn *tensor.TensorOf[T]
	// cols is shared with every other conv layer of the owning Network; a
	// standalone layer makes its own on first Forward.
	cols *convColsOf[T]
}

// forward lowers x to im2col patches and runs one blocked GEMM against the
// weight matrix into out.
func (cb *convBaseOf[T]) forward(c convOf[T], x, out *tensor.TensorOf[T], w, bias *ParamOf[T], rows, kdim int) *tensor.TensorOf[T] {
	cb.lastIn = x
	if cb.cols == nil {
		c.setCols(&convColsOf[T]{})
	}
	cols := cb.cols.cols(x.Shape[0], rows*kdim)
	c.im2col(x, cols)
	cb.cols.owner = c
	tensor.Gemm(out.Data, cols, w.W.Data, rows, kdim, len(bias.W.Data), bias.W.Data)
	return out
}

// backward computes all three gradients through the GEMM kernels: the bias
// gradient is a serial column sum of dOut (cheap and order-stable), the
// weight gradient is patchesᵀ·dOut on the forward im2col matrix, and the
// input gradient — when it has a consumer — is dOut·Wᵀ scattered back
// through col2im onto a cleared buffer. When a deeper conv layer has
// overwritten the shared patch matrix since this layer's Forward, the
// patches are re-gathered from the cached input first; the deepest conv
// runs backward first and always hits.
func (cb *convBaseOf[T]) backward(c convOf[T], dOut *tensor.TensorOf[T], w, bias *ParamOf[T], rows, kdim int) []*tensor.TensorOf[T] {
	x, outC := cb.lastIn, len(bias.W.Data)
	db := bias.Grad.Data
	for i := 0; i < rows; i++ {
		for f, g := range dOut.Data[i*outC : (i+1)*outC] {
			db[f] += g
		}
	}
	cols := cb.cols.cols(x.Shape[0], rows*kdim)
	if cb.cols.owner != c {
		c.im2col(x, cols)
		cb.cols.owner = c
	}
	tensor.GemmAT(w.Grad.Data, cols, dOut.Data, rows, kdim, outC)
	if cb.deadIn {
		return cb.grads(nil)
	}
	dcols := cb.cols.dcols(x.Shape[0], rows*kdim)
	tensor.GemmBT(dcols, dOut.Data, w.W.Data, rows, outC, kdim)
	dIn := cb.buf(slotDIn, x.Shape...)
	dIn.Zero()
	c.col2im(dcols, dIn)
	return cb.grads(dIn)
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
	convBaseOf[T]
	name       string
	KH, KW     int
	InC, OutC  int
	Pad        Padding
	effPad     Padding
	W, B       *ParamOf[T]
	inH, inW   int
	outH, outW int
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

func (c *Conv2DOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	b := in[0].Shape[0]
	return c.forward(c, in[0], c.buf(slotOut, b, c.outH, c.outW, c.OutC), c.W, c.B, b*c.outH*c.outW, c.kdim())
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

func (c *Conv2DOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	return c.backward(c, dOut, c.W, c.B, dOut.Shape[0]*c.outH*c.outW, c.kdim())
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
// [K, C, F]. It powers the NT3-like gene-sequence search space. The same
// degenerate-valid fallback as Conv2D applies.
type Conv1DOf[T tensor.Float] struct {
	convBaseOf[T]
	name      string
	K         int
	InC, OutC int
	Pad       Padding
	effPad    Padding
	W, B      *ParamOf[T]
	inL, outL int
}

// NewConv1D creates a 1-D conv layer with He-normal weights.
func NewConv1D(name string, k, inC, outC int, pad Padding, l2 float64, rng *rand.Rand) *Conv1D {
	w := tensor.New(k, inC, outC)
	w.HeNormal(rng, k*inC)
	return &Conv1D{
		name: name, K: k, InC: inC, OutC: outC, Pad: pad,
		W: &Param{Name: name + "/W", W: w, Grad: tensor.New(k, inC, outC), L2: l2},
		B: &Param{Name: name + "/b", W: tensor.New(outC), Grad: tensor.New(outC)},
	}
}

func (c *Conv1DOf[T]) Name() string          { return c.name }
func (c *Conv1DOf[T]) Params() []*ParamOf[T] { return []*ParamOf[T]{c.W, c.B} }

// EffectivePadding returns the padding applied after shape inference.
func (c *Conv1DOf[T]) EffectivePadding() Padding { return c.effPad }

func (c *Conv1DOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("conv1d wants 1 input, got %d", len(in))
	}
	s := in[0]
	if len(s) != 2 || s[1] != c.InC {
		return nil, fmt.Errorf("conv1d wants input (L, %d), got %s", c.InC, tensor.ShapeString(s))
	}
	c.inL = s[0]
	c.effPad = c.Pad
	if c.effPad == Valid && c.inL < c.K {
		c.effPad = Same
	}
	if c.effPad == Same {
		c.outL = c.inL
	} else {
		c.outL = c.inL - c.K + 1
	}
	return []int{c.outL, c.OutC}, nil
}

func (c *Conv1DOf[T]) padOffset() int {
	if c.effPad == Same {
		return (c.K - 1) / 2
	}
	return 0
}

func (c *Conv1DOf[T]) kdim() int { return c.K * c.InC }

func (c *Conv1DOf[T]) setCols(a *convColsOf[T]) {
	c.cols = a
	a.perSample = max(a.perSample, c.outL*c.kdim())
}

func (c *Conv1DOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	b := in[0].Shape[0]
	return c.forward(c, in[0], c.buf(slotOut, b, c.outL, c.OutC), c.W, c.B, b*c.outL, c.kdim())
}

// im2col writes one patch row per (sample, ol) position, taps in (k, ci)
// order; the in-range tap span is a single contiguous copy.
func (c *Conv1DOf[T]) im2col(x *tensor.TensorOf[T], cols []T) {
	pad := c.padOffset()
	kdim := c.kdim()
	parallel.For(x.Shape[0]*c.outL, parallel.MinChunk(kdim*costCopy), func(lo, hi int) {
		for s := lo; s < hi; s++ {
			bi, ol := s/c.outL, s%c.outL
			xb := x.Data[bi*c.inL*c.InC : (bi+1)*c.inL*c.InC]
			row := cols[s*kdim : (s+1)*kdim]
			k0, k1 := pad-ol, c.inL+pad-ol
			if k0 < 0 {
				k0 = 0
			}
			if k1 > c.K {
				k1 = c.K
			}
			if k0 >= k1 {
				zero(row)
				continue
			}
			zero(row[:k0*c.InC])
			src := (ol + k0 - pad) * c.InC
			copy(row[k0*c.InC:k1*c.InC], xb[src:src+(k1-k0)*c.InC])
			zero(row[k1*c.InC:])
		}
	})
}

func (c *Conv1DOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	return c.backward(c, dOut, c.W, c.B, dOut.Shape[0]*c.outL, c.kdim())
}

// col2im scatters patch gradients back onto the input. Work shards over
// input *positions* across the whole batch (b·inL strips); each position is
// written by exactly one shard. For input position p the contributing output positions satisfy
// k = p + pad - ol ∈ [0, K); walking them ol-ascending accumulates the
// contributions in exactly the order of the serial (ol, k, ci) scatter,
// keeping gradients bit-identical for any worker count.
func (c *Conv1DOf[T]) col2im(dcols []T, dIn *tensor.TensorOf[T]) {
	pad := c.padOffset()
	kdim := c.kdim()
	parallel.For(dIn.Shape[0]*c.inL, parallel.MinChunk(kdim*costStream), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			bi, p := r/c.inL, r%c.inL
			d := dIn.Data[r*c.InC : (r+1)*c.InC]
			ol0, ol1 := p+pad-c.K+1, p+pad
			if ol0 < 0 {
				ol0 = 0
			}
			if ol1 > c.outL-1 {
				ol1 = c.outL - 1
			}
			for ol := ol0; ol <= ol1; ol++ {
				k := p + pad - ol
				seg := dcols[(bi*c.outL+ol)*kdim+k*c.InC : (bi*c.outL+ol)*kdim+(k+1)*c.InC]
				for ci, v := range seg {
					d[ci] += v
				}
			}
		}
	})
}
