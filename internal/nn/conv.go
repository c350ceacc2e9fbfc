package nn

import (
	"fmt"
	"math/rand"

	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// Conv2D is a set of strided GEMMs over its input, and Conv1D is Conv2D on a
// height-1 map, so there is one convolution kernel set. No patch matrix is
// built: a layer with a border copies its input once into a zero-bordered
// tap map (without one it reads the input itself), and in the tap map the
// KW·InC taps of kernel row ky for output position (oy, ox) are one
// contiguous run, InC elements after the run of (oy, ox-1) and one tap-map
// row after the run of kernel row ky-1. tensor.GemmStrided reads every
// receptive field in place through two offset tables, one for its rows and
// one for the groups of contiguous terms its reduction walks:
//
//   - forward: out = bias + taps·W, one product per shard of output
//     positions, each position's taps KH groups of KW·InC;
//   - weight gradient: W.Grad += tapsᵀ·dOut, one product per shard of tap
//     rows, reducing over every output position of the batch in order, a
//     run of positions (an output row) to a group; the bias gradient is one
//     more product, dOut's column sums against a one;
//   - input gradient: dOut·Wᵀ (tensor.GemmBTSerial) into a block of a
//     sample's (or a strip of samples') output rows, then a col2im scatter
//     of that block.
//
// Determinism: every output element takes its (ky, kx, ci) terms in order
// from the bias, every weight- and bias-gradient element its positions in
// (sample, oy, ox) order, and col2im accumulates each input element's
// contributions in (oy, ox) order — the per-element order of a serial
// direct convolution whose taps outside the border are zeros. Outputs and
// gradients are therefore bit-identical to the direct loops at workers=1 (a
// test-only reference in convdirect_test.go) and across worker counts. The sharded units are output positions,
// weight-gradient tap rows and input rows, so a call splits on its work and
// not on its batch size. A network's first layer, whose input gradient
// nobody consumes, skips the input gradient altogether.

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
	// xp is what Forward read its taps from: the zero-bordered copy of
	// lastIn, or lastIn's data under "valid" padding.
	xp []T
	// one is the A operand of the bias gradient's column sum.
	one [1]T
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

// kdim is the receptive field's length: every (ky, kx, ci) tap.
func (c *Conv2DOf[T]) kdim() int { return c.KH * c.KW * c.InC }

// padded returns the height and width of the map the taps are read from.
func (c *Conv2DOf[T]) padded() (int, int) {
	if c.effPad == Same {
		return c.inH + c.KH - 1, c.inW + c.KW - 1
	}
	return c.inH, c.inW
}

// BorderedInput returns the per-sample height and width of the
// zero-bordered copy of its input a convolution reads its taps from, and
// whether it makes one: not where there is no border (valid padding, a 1×1
// kernel), where it reads its input in place. OutShape sets what it reads.
func (c *Conv2DOf[T]) BorderedInput() (h, w int, copied bool) {
	ph, pw := c.padded()
	return ph, pw, ph != c.inH || pw != c.inW
}

// taps returns the map the receptive fields are read from: x itself where
// there is no border, otherwise x copied into the middle of a zero-bordered
// buffer, every element of it written.
func (c *Conv2DOf[T]) taps(x *tensor.TensorOf[T]) []T {
	ph, pw, copied := c.BorderedInput()
	if !copied {
		return x.Data
	}
	padH, padW := c.padOffsets()
	xp := c.buf(slotAux, x.Shape[0], ph, pw, c.InC).Data
	row, inRow := pw*c.InC, c.inW*c.InC
	for r := 0; r < x.Shape[0]*ph; r++ {
		bi, y := r/ph, r%ph-padH
		dst := xp[r*row : (r+1)*row]
		if y < 0 || y >= c.inH {
			clear(dst)
			continue
		}
		clear(dst[:padW*c.InC])
		copy(dst[padW*c.InC:], x.Data[(bi*c.inH+y)*inRow:(bi*c.inH+y+1)*inRow])
		clear(dst[padW*c.InC+inRow:])
	}
	return xp
}

// oneGroup is the offset table of one run of terms, or of one row.
var oneGroup = []int{0}

// tapsAt fills at[i] with the tap-map offset of output position i·step,
// counted (sample, oy, ox) batch-major: the first tap of its receptive
// field.
func (c *Conv2DOf[T]) tapsAt(at []int, step int) {
	ph, pw := c.padded()
	s, oy, ox := 0, 0, 0
	for i := range at {
		at[i] = ((s*ph+oy)*pw + ox) * c.InC
		for ox += step; ox >= c.outW; ox -= c.outW {
			if oy++; oy == c.outH {
				s, oy = s+1, 0
			}
		}
	}
}

// runs says how the batch's output positions line up in the tap map: as
// count runs of run positions step apart — output rows, InC apart; on a
// map one wide the samples' columns, a tap-map row apart; on a 1×1 map the
// whole batch, a sample apart.
func (c *Conv2DOf[T]) runs(batch int) (count, run, step int) {
	ph, pw := c.padded()
	switch {
	case c.outW > 1:
		return batch * c.outH, c.outW, c.InC
	case c.outH > 1:
		return batch, c.outH, pw * c.InC
	}
	return 1, batch, ph * pw * c.InC
}

// Forward runs one strided product per shard of output positions, each
// position's KH groups of KW·InC taps against the whole weight matrix.
func (c *Conv2DOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	x := in[0]
	b := x.Shape[0]
	c.lastIn, c.xp = x, c.taps(x)
	out := c.buf(slotOut, b, c.outH, c.outW, c.OutC)
	rows, kdim := b*c.outH*c.outW, c.kdim()
	_, pw := c.padded()
	at := c.indices(rows + c.KH)
	pos, kyRows := at[:rows], at[rows:]
	c.tapsAt(pos, 1)
	for ky := range kyRows {
		kyRows[ky] = ky * pw * c.InC
	}
	defer tensor.ObserveGemm(rows, kdim, c.OutC, tensor.StartGemm())
	parallel.For(rows, parallel.MinChunk(tensor.GemmCost[T](kdim*c.OutC)), func(lo, hi int) {
		tensor.GemmStrided(out.Data[lo*c.OutC:], c.B.W.Data, 0, c.xp, pos[lo:hi], kyRows, c.KW*c.InC, 1,
			c.W.W.Data, c.OutC)
	})
	return out
}

// Backward shards the weight gradient over W.Grad's tap rows, as
// tensor.GemmAT shards its output rows, plus one row for the bias gradient;
// the input gradient, when it has a consumer, over input rows (col2im).
func (c *Conv2DOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	x := c.lastIn
	b := x.Shape[0]
	rows, kdim, kw := b*c.outH*c.outW, c.kdim(), c.KW*c.InC
	_, pw := c.padded()
	count, run, step := c.runs(b)
	at := c.indices(kdim + count)
	taps, starts := at[:kdim], at[kdim:]
	for t := range taps {
		taps[t] = t/kw*pw*c.InC + t%kw
	}
	c.tapsAt(starts, run)
	dw, db := c.W.Grad.Data, c.B.Grad.Data
	c.one[0] = 1
	t := tensor.StartGemm()
	parallel.For(kdim+1, parallel.MinChunk(tensor.GemmCost[T](rows*c.OutC)), func(lo, hi int) {
		if hi > kdim {
			tensor.GemmStrided(db, db, 0, c.one[:], oneGroup, oneGroup, rows, 0, dOut.Data, c.OutC)
			hi = kdim
		}
		if lo < hi {
			d := dw[lo*c.OutC : hi*c.OutC]
			tensor.GemmStrided(d, d, c.OutC, c.xp, taps[lo:hi], starts, run, step, dOut.Data, c.OutC)
		}
	})
	tensor.ObserveGemm(rows, kdim, c.OutC, t)
	if c.deadIn {
		return c.grads(nil)
	}
	dIn := c.buf(slotDIn, x.Shape...)
	c.col2im(dOut, dIn)
	return c.grads(dIn)
}

// blockRows is the least number of output positions whose patch gradients
// col2im computes in one product: a strip of whole samples where a
// sample's map is smaller, one sample's rows otherwise. The block holds
// max(outH·outW, blockRows) rows at most, whatever the batch.
const blockRows = 64

// InputGradBlock returns the element count of one shard's col2im block at
// the largest strip any batch gives: max(1, blockRows/(outH·outW)) samples of
// outH·outW·KH·KW·InC patch gradients. OutShape sets what it reads.
func (c *Conv2DOf[T]) InputGradBlock() int {
	hw := c.outH * c.outW
	return max(1, blockRows/hw) * hw * c.kdim()
}

// col2im computes the input gradient, sharded over the batch's input rows,
// each written by one shard. A shard takes its rows a strip of samples at a
// time: dOut·Wᵀ for the output rows they receive from goes into its block —
// the bits one product over the batch gives those rows — and is added onto
// the cleared input rows, output rows oy-ascending (ky = y + padH - oy),
// then ox-ascending: every input element's contributions in the order of
// the serial (oy, ox, ky, kx, ci) scatter, for any worker count.
func (c *Conv2DOf[T]) col2im(dOut, dIn *tensor.TensorOf[T]) {
	padH, padW := c.padOffsets()
	inRow, kdim, kw := c.inW*c.InC, c.kdim(), c.KW*c.InC
	n := dIn.Shape[0] * c.inH
	defer tensor.ObserveGemm(dIn.Shape[0]*c.outH*c.outW, kdim, c.OutC, tensor.StartGemm())
	strip := min(dIn.Shape[0], max(1, blockRows/(c.outH*c.outW)))
	cost := tensor.GemmCost[T](c.outW*kdim*c.OutC) + c.outW*kdim*costStream
	shards := parallel.Shards(n, parallel.MinChunk(cost))
	for i := 0; i < shards; i++ {
		c.buf(slotAux+1+i, strip*c.outH*c.outW*kdim)
	}
	// The output rows, counted (sample, oy), input row r = (sample, y)
	// receives from are [first(r), last(r)].
	first := func(r int) int { return r/c.inH*c.outH + max(0, r%c.inH+padH-c.KH+1) }
	last := func(r int) int { return r/c.inH*c.outH + min(c.outH-1, r%c.inH+padH) }
	parallel.ForShardN(n, shards, func(shard, lo, hi int) {
		block := c.slots[slotAux+1+shard].Data
		for r0 := lo; r0 < hi; {
			r1 := min(hi, (r0/c.inH+strip)*c.inH)
			q0, q1 := first(r0), last(r1-1)+1
			tensor.GemmBTSerial(block, dOut.Data[q0*c.outW*c.OutC:], c.W.W.Data, (q1-q0)*c.outW, c.OutC, kdim)
			for r := r0; r < r1; r++ {
				drow := dIn.Data[r*inRow : (r+1)*inRow]
				clear(drow)
				for q := first(r); q <= last(r); q++ {
					ky := r%c.inH + padH - q%c.outH
					base := (q-q0)*c.outW*kdim + ky*kw
					for ox := 0; ox < c.outW; ox++ {
						// Taps kx in [lo, hi) land on adjacent input pixels
						// ox+kx-padW: one contiguous run of both rows.
						lo, hi := max(0, padW-ox), min(c.KW, c.inW+padW-ox)
						if lo >= hi {
							continue
						}
						seg := block[base+ox*kdim+lo*c.InC : base+ox*kdim+hi*c.InC]
						d := drow[(ox+lo-padW)*c.InC : (ox+hi-padW)*c.InC]
						for i, v := range seg {
							d[i] += v
						}
					}
				}
			}
			r0 = r1
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
