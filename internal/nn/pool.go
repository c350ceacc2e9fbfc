package nn

import (
	"fmt"
	"math"

	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// Pooling layers shard across the worker pool with the same bit-identical
// contract as the conv/dense kernels (pinned by TestParallelPoolMatchesSerial):
//
//   - Forward shards over output rows across the whole batch; every output
//     element (and argmax slot) is written by exactly one shard with the
//     serial arithmetic, so results cannot depend on the worker count.
//   - Backward scatters gradients back through the window. With
//     Stride >= Size the windows are disjoint, every input element receives
//     at most one contribution, and the scatter shards over output rows.
//     With overlapping windows (Stride < Size) an input element can receive
//     contributions from several output rows, so the scatter only shards
//     over samples — within one sample it runs in ascending output order,
//     the exact serial sequence.
//
// Either way the scatter adds into the retained input-gradient buffer,
// cleared first. A pool degraded to the identity returns what it was handed.

// MaxPool2D is a max pooling layer over [B, H, W, C] inputs with a square
// window. When the input's spatial extent is smaller than the window (a
// state random NAS candidates can reach by stacking pools), the layer
// degrades to the identity; IsIdentity reports that.
type MaxPool2DOf[T tensor.Float] struct {
	stepBufsOf[T]
	name         string
	Size, Stride int
	identity     bool
	inH, inW, ch int
	outH, outW   int
	argmax       []int // linear input index per output element
}

// NewMaxPool2D creates a pooling layer.
func NewMaxPool2D(name string, size, stride int) *MaxPool2D {
	if size < 1 || stride < 1 {
		panic(fmt.Sprintf("nn: pool size %d / stride %d must be >= 1", size, stride))
	}
	return &MaxPool2D{name: name, Size: size, Stride: stride}
}

func (p *MaxPool2DOf[T]) Name() string          { return p.name }
func (p *MaxPool2DOf[T]) Params() []*ParamOf[T] { return nil }

// IsIdentity reports whether the last shape inference degraded the pool to a
// pass-through because the window does not fit.
func (p *MaxPool2DOf[T]) IsIdentity() bool { return p.identity }

func (p *MaxPool2DOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("maxpool2d wants 1 input, got %d", len(in))
	}
	s := in[0]
	if len(s) != 3 {
		return nil, fmt.Errorf("maxpool2d wants input (H, W, C), got %s", tensor.ShapeString(s))
	}
	p.inH, p.inW, p.ch = s[0], s[1], s[2]
	p.identity = p.inH < p.Size || p.inW < p.Size
	if p.identity {
		p.outH, p.outW = p.inH, p.inW
		return append([]int(nil), s...), nil
	}
	p.outH = (p.inH-p.Size)/p.Stride + 1
	p.outW = (p.inW-p.Size)/p.Stride + 1
	return []int{p.outH, p.outW, p.ch}, nil
}

func (p *MaxPool2DOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	x := in[0]
	if p.identity {
		return x
	}
	b := x.Shape[0]
	out := p.buf(slotOut, b, p.outH, p.outW, p.ch)
	p.argmax = p.indices(out.Numel())
	inRow := p.inW * p.ch
	orow := p.outW * p.ch
	parallel.For(b*p.outH, parallel.MinChunk(orow*p.Size*p.Size*costBranch), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			bi, oy := r/p.outH, r%p.outH
			xb := bi * p.inH * inRow
			oi := r * orow
			for ox := 0; ox < p.outW; ox++ {
				for c := 0; c < p.ch; c++ {
					// A window no tap of which beats −Inf (all NaN or −Inf,
					// a diverged run) routes its gradient to the first tap.
					best := T(math.Inf(-1))
					bestIdx := xb + oy*p.Stride*inRow + ox*p.Stride*p.ch + c
					for ky := 0; ky < p.Size; ky++ {
						y := oy*p.Stride + ky
						for kx := 0; kx < p.Size; kx++ {
							xp := ox*p.Stride + kx
							idx := xb + y*inRow + xp*p.ch + c
							if v := x.Data[idx]; v > best {
								best, bestIdx = v, idx
							}
						}
					}
					out.Data[oi] = best
					p.argmax[oi] = bestIdx
					oi++
				}
			}
		}
	})
	return out
}

func (p *MaxPool2DOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	if p.identity {
		return p.grads(dOut)
	}
	b := dOut.Shape[0]
	dIn := p.buf(slotDIn, b, p.inH, p.inW, p.ch)
	dIn.Zero()
	orow := p.outW * p.ch
	// Disjoint windows (Stride >= Size): each input element gets at most one
	// contribution, so output rows scatter independently; overlapping ones
	// only per sample.
	items, per := b*p.outH, orow
	if p.Stride < p.Size {
		items, per = b, p.outH*orow
	}
	parallel.For(items, parallel.MinChunk(per*costGather), func(lo, hi int) {
		for oi := lo * per; oi < hi*per; oi++ {
			dIn.Data[p.argmax[oi]] += dOut.Data[oi]
		}
	})
	return p.grads(dIn)
}

// MaxPool1D is max pooling over [B, L, C] inputs, with the same
// degenerate-window identity fallback as MaxPool2D.
type MaxPool1DOf[T tensor.Float] struct {
	stepBufsOf[T]
	name         string
	Size, Stride int
	identity     bool
	inL, ch      int
	outL         int
	argmax       []int
}

// NewMaxPool1D creates a 1-D pooling layer.
func NewMaxPool1D(name string, size, stride int) *MaxPool1D {
	if size < 1 || stride < 1 {
		panic(fmt.Sprintf("nn: pool size %d / stride %d must be >= 1", size, stride))
	}
	return &MaxPool1D{name: name, Size: size, Stride: stride}
}

func (p *MaxPool1DOf[T]) Name() string          { return p.name }
func (p *MaxPool1DOf[T]) Params() []*ParamOf[T] { return nil }

// IsIdentity reports whether the pool degraded to a pass-through.
func (p *MaxPool1DOf[T]) IsIdentity() bool { return p.identity }

func (p *MaxPool1DOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("maxpool1d wants 1 input, got %d", len(in))
	}
	s := in[0]
	if len(s) != 2 {
		return nil, fmt.Errorf("maxpool1d wants input (L, C), got %s", tensor.ShapeString(s))
	}
	p.inL, p.ch = s[0], s[1]
	p.identity = p.inL < p.Size
	if p.identity {
		p.outL = p.inL
		return append([]int(nil), s...), nil
	}
	p.outL = (p.inL-p.Size)/p.Stride + 1
	return []int{p.outL, p.ch}, nil
}

func (p *MaxPool1DOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	x := in[0]
	if p.identity {
		return x
	}
	b := x.Shape[0]
	out := p.buf(slotOut, b, p.outL, p.ch)
	p.argmax = p.indices(out.Numel())
	parallel.For(b*p.outL, parallel.MinChunk(p.ch*p.Size*costBranch), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			bi, ol := r/p.outL, r%p.outL
			xb := bi * p.inL * p.ch
			oi := r * p.ch
			for c := 0; c < p.ch; c++ {
				best := T(math.Inf(-1))
				bestIdx := xb + ol*p.Stride*p.ch + c // as in MaxPool2D
				for k := 0; k < p.Size; k++ {
					idx := xb + (ol*p.Stride+k)*p.ch + c
					if v := x.Data[idx]; v > best {
						best, bestIdx = v, idx
					}
				}
				out.Data[oi] = best
				p.argmax[oi] = bestIdx
				oi++
			}
		}
	})
	return out
}

func (p *MaxPool1DOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	if p.identity {
		return p.grads(dOut)
	}
	b := dOut.Shape[0]
	dIn := p.buf(slotDIn, b, p.inL, p.ch)
	dIn.Zero()
	items, per := b*p.outL, p.ch
	if p.Stride < p.Size {
		items, per = b, p.outL*p.ch
	}
	parallel.For(items, parallel.MinChunk(per*costGather), func(lo, hi int) {
		for oi := lo * per; oi < hi*per; oi++ {
			dIn.Data[p.argmax[oi]] += dOut.Data[oi]
		}
	})
	return p.grads(dIn)
}
