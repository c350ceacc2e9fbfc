package nn

import (
	"fmt"
	"math"

	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// BatchNorm normalizes activations per channel (last axis) across the batch
// and any spatial axes, then applies a learned affine transform
// y = gamma*x̂ + beta. During training it also maintains running mean and
// variance estimates (non-trainable, but checkpointed and transferred with
// the layer) that inference uses.
//
// Both passes shard across the worker pool. The element-wise stages
// (normalize, affine, input gradient) write each element from exactly one
// shard, so they are trivially bit-identical for any worker count. The
// per-channel reductions (mean, variance, dGamma/dBeta sums) use a fixed
// blocked summation: rows are cut into bnBlockRows-sized blocks — a constant
// independent of the worker count — whose partial sums are computed in
// parallel and then combined serially in ascending block order. The
// summation tree therefore never depends on how many workers ran, which is
// what TestParallelBatchNormMatchesSerial pins (workers=1 runs the same
// blocked path inline).
//
// Every pass runs row-outer, channel-inner over the C elements of a row
// (one position of the batch and the spatial axes), so a channel is an
// index into the row and its per-channel operands, never a division; each
// channel's operations, and each block's partial sums, run in row order
// (TestBatchNormMatchesDirect holds them to the per-element loops).
type BatchNormOf[T tensor.Float] struct {
	stepBufsOf[T]
	name string
	C    int
	// Momentum is the exponential-moving-average factor of the running
	// statistics: running = Momentum*running + (1-Momentum)*batch.
	Momentum float64
	// Eps stabilizes the inverse standard deviation.
	Eps float64

	Gamma, Beta     *ParamOf[T]
	RunMean, RunVar *ParamOf[T] // non-trainable (nil Grad)
	lastXHat        []T         // nil after an inference pass
	lastInvStd      []T
	inShape         []int
	seen            bool // running stats initialized from a batch yet?
}

// BatchNorm's own slots: x̂, per-channel vectors, the reductions' partials,
// and the per-channel factor of an element pass (the inference pass's
// standard deviation, the input gradient's gamma·invStd/n).
const (
	bnXHat = slotAux + iota
	bnMean
	bnVar
	bnInvStd
	bnSums
	bnPartials
	bnScale
)

// bnBlockRows is the fixed reduction block size: per-channel sums are formed
// per block of this many rows, then combined in ascending block order. It is
// a constant — never derived from the worker count — so the floating-point
// summation tree is identical for any pool size. 128 rows keeps a block's
// input (128·C floats) comfortably inside L2 while giving even small batch×
// spatial extents enough blocks to spread across cores.
const bnBlockRows = 128

// NewBatchNorm creates a batch-normalization layer over c channels.
func NewBatchNorm(name string, c int) *BatchNorm {
	gamma := tensor.New(c)
	gamma.Fill(1)
	runVar := tensor.New(c)
	runVar.Fill(1)
	return &BatchNorm{
		name: name, C: c, Momentum: 0.9, Eps: 1e-5,
		Gamma:   &Param{Name: name + "/gamma", W: gamma, Grad: tensor.New(c)},
		Beta:    &Param{Name: name + "/beta", W: tensor.New(c), Grad: tensor.New(c)},
		RunMean: &Param{Name: name + "/running_mean", W: tensor.New(c)},
		RunVar:  &Param{Name: name + "/running_var", W: runVar},
	}
}

func (b *BatchNormOf[T]) Name() string { return b.name }

// Params lists gamma first (the transfer signature), then beta and the
// running statistics, so weight transfer moves the whole normalization state.
func (b *BatchNormOf[T]) Params() []*ParamOf[T] {
	return []*ParamOf[T]{b.Gamma, b.Beta, b.RunMean, b.RunVar}
}

func (b *BatchNormOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("batchnorm wants 1 input, got %d", len(in))
	}
	s := in[0]
	if len(s) == 0 || s[len(s)-1] != b.C {
		return nil, fmt.Errorf("batchnorm wants trailing channel dim %d, got %s", b.C, tensor.ShapeString(s))
	}
	b.inShape = append([]int(nil), s...)
	return append([]int(nil), s...), nil
}

// reduce computes a width-wide column reduction over n rows into buffer slot:
// acc adds rows [r0, r1) into its (cleared) partial-sum slice, once per fixed
// bnBlockRows block in parallel; the block partials are then combined
// serially in ascending block order. The result is independent of the worker
// count by construction.
func (b *BatchNormOf[T]) reduce(slot, n, width int, acc func(ps []T, r0, r1 int)) []T {
	nb := (n + bnBlockRows - 1) / bnBlockRows
	partials := b.buf(bnPartials, nb*width).Data
	clear(partials)
	parallel.For(nb, parallel.MinChunk(bnBlockRows*width*costStream), func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			r0 := blk * bnBlockRows
			r1 := r0 + bnBlockRows
			if r1 > n {
				r1 = n
			}
			acc(partials[blk*width:(blk+1)*width], r0, r1)
		}
	})
	out := b.buf(slot, width).Data
	clear(out)
	for blk := 0; blk < nb; blk++ {
		for c, v := range partials[blk*width : (blk+1)*width] {
			out[c] += v
		}
	}
	return out
}

func (b *BatchNormOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	x := in[0]
	n := x.Numel() / b.C // rows: samples per channel (batch × spatial)
	out := b.buf(slotOut, x.Shape...)
	gamma, beta := b.Gamma.W.Data, b.Beta.W.Data

	if !training {
		rm, rv := b.RunMean.W.Data, b.RunVar.W.Data
		std := b.buf(bnScale, b.C).Data
		for c := range std {
			std[c] = T(math.Sqrt(float64(rv[c]) + b.Eps))
		}
		parallel.For(n, parallel.MinChunk(b.C*costStream), func(lo, hi int) {
			for r := lo; r < hi; r++ {
				xr, or := x.Data[r*b.C:(r+1)*b.C], out.Data[r*b.C:(r+1)*b.C]
				for c, v := range xr {
					or[c] = gamma[c]*(v-rm[c])/std[c] + beta[c]
				}
			}
		})
		b.lastXHat = nil
		return out
	}

	mean := b.reduce(bnMean, n, b.C, func(ps []T, r0, r1 int) {
		for r := r0; r < r1; r++ {
			for c, v := range x.Data[r*b.C : (r+1)*b.C] {
				ps[c] += v
			}
		}
	})
	for c := range mean {
		mean[c] /= T(n)
	}
	variance := b.reduce(bnVar, n, b.C, func(ps []T, r0, r1 int) {
		for r := r0; r < r1; r++ {
			for c, v := range x.Data[r*b.C : (r+1)*b.C] {
				d := v - mean[c]
				ps[c] += d * d
			}
		}
	})
	invStd := b.buf(bnInvStd, b.C).Data
	for c := range variance {
		variance[c] /= T(n)
		invStd[c] = T(1 / math.Sqrt(float64(variance[c])+b.Eps))
	}

	b.lastXHat = b.buf(bnXHat, x.Numel()).Data
	parallel.For(n, parallel.MinChunk(b.C*costStream), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			xr, xh, or := x.Data[r*b.C:(r+1)*b.C], b.lastXHat[r*b.C:(r+1)*b.C], out.Data[r*b.C:(r+1)*b.C]
			for c, v := range xr {
				h := (v - mean[c]) * invStd[c]
				xh[c] = h
				or[c] = gamma[c]*h + beta[c]
			}
		}
	})
	b.lastInvStd = invStd

	rm, rv := b.RunMean.W.Data, b.RunVar.W.Data
	if !b.seen {
		copy(rm, mean)
		copy(rv, variance)
		b.seen = true
	} else {
		mom, om := T(b.Momentum), T(1-b.Momentum)
		for c := 0; c < b.C; c++ {
			rm[c] = mom*rm[c] + om*mean[c]
			rv[c] = mom*rv[c] + om*variance[c]
		}
	}
	return out
}

func (b *BatchNormOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	if b.lastXHat == nil {
		panic("nn: BatchNorm.Backward without a training Forward pass")
	}
	n := dOut.Numel() / b.C
	gamma := b.Gamma.W.Data
	dGamma, dBeta := b.Gamma.Grad.Data, b.Beta.Grad.Data

	// One blocked pass produces both per-channel sums: partial layout is
	// [sumDy | sumDyXHat] per block.
	sums := b.reduce(bnSums, n, 2*b.C, func(ps []T, r0, r1 int) {
		sumDy, sumDyXHat := ps[:b.C], ps[b.C:]
		for r := r0; r < r1; r++ {
			xh := b.lastXHat[r*b.C : (r+1)*b.C]
			for c, g := range dOut.Data[r*b.C : (r+1)*b.C] {
				sumDy[c] += g
				sumDyXHat[c] += g * xh[c]
			}
		}
	})
	sumDy, sumDyXHat := sums[:b.C], sums[b.C:]
	for c := 0; c < b.C; c++ {
		dGamma[c] += sumDyXHat[c]
		dBeta[c] += sumDy[c]
	}
	dIn := b.buf(slotDIn, dOut.Shape...)
	nf := T(n)
	// dIn = gamma·invStd/n · (n·dy − sumDy − x̂·sumDyXHat), its leading
	// factor formed once per channel in the element expression's own order.
	scale := b.buf(bnScale, b.C).Data
	for c := range scale {
		scale[c] = gamma[c] * b.lastInvStd[c] / nf
	}
	parallel.For(n, parallel.MinChunk(b.C*costStream), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			g, xh, d := dOut.Data[r*b.C:(r+1)*b.C], b.lastXHat[r*b.C:(r+1)*b.C], dIn.Data[r*b.C:(r+1)*b.C]
			for c, v := range g {
				d[c] = scale[c] * (nf*v - sumDy[c] - xh[c]*sumDyXHat[c])
			}
		}
	})
	return b.grads(dIn)
}
