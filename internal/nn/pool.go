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

// window is the geometry every pooling layer shares: a kh × Size window
// moved by Stride over [B, H, W, C] maps. kh is Size for the square 2-D pools
// and 1 for MaxPool1D, which is MaxPool2D on a height-1 map. When the input
// is smaller than the window (a state random NAS candidates can reach by
// stacking pools), the pool degrades to the identity; IsIdentity reports
// that.
type window struct {
	name         string
	Size, Stride int
	kh           int
	identity     bool
	inH, inW, ch int
	outH, outW   int
}

func newWindow(name string, size, stride int) window {
	if size < 1 || stride < 1 {
		panic(fmt.Sprintf("nn: pool size %d / stride %d must be >= 1", size, stride))
	}
	return window{name: name, Size: size, Stride: stride, kh: size}
}

func (w *window) Name() string { return w.name }

// IsIdentity reports whether the last shape inference degraded the pool to a
// pass-through because the window does not fit.
func (w *window) IsIdentity() bool { return w.identity }

// outShape is the shape inference of a pool called kind over (H, W, C).
func (w *window) outShape(kind string, in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("%s wants 1 input, got %d", kind, len(in))
	}
	s := in[0]
	if len(s) != 3 {
		return nil, fmt.Errorf("%s wants input (H, W, C), got %s", kind, tensor.ShapeString(s))
	}
	w.inH, w.inW, w.ch = s[0], s[1], s[2]
	w.identity = w.inH < w.kh || w.inW < w.Size
	if w.identity {
		w.outH, w.outW = w.inH, w.inW
		return append([]int(nil), s...), nil
	}
	w.outH = (w.inH-w.kh)/w.Stride + 1
	w.outW = (w.inW-w.Size)/w.Stride + 1
	return []int{w.outH, w.outW, w.ch}, nil
}

// MaxPool2D is a max pooling layer over [B, H, W, C] inputs with a square
// window.
type MaxPool2DOf[T tensor.Float] struct {
	stepBufsOf[T]
	window
	argmax []int32 // input index within its sample, per output element
}

// NewMaxPool2D creates a pooling layer.
func NewMaxPool2D(name string, size, stride int) *MaxPool2D {
	return &MaxPool2D{window: newWindow(name, size, stride)}
}

func (p *MaxPool2DOf[T]) Params() []*ParamOf[T] { return nil }

func (p *MaxPool2DOf[T]) OutShape(in [][]int) ([]int, error) {
	out, err := p.outShape("maxpool2d", in)
	if err != nil {
		return nil, err
	}
	if err := p.indexable("maxpool2d"); err != nil {
		return nil, err
	}
	return out, nil
}

// indexable reports an error where a sample's input map has more elements
// than the int32 argmax can index.
func (p *MaxPool2DOf[T]) indexable(kind string) error {
	if n := p.inH * p.inW * p.ch; n > math.MaxInt32 {
		return fmt.Errorf("%s input of %d elements per sample: its argmax indexes at most %d", kind, n, math.MaxInt32)
	}
	return nil
}

// Forward runs one tensor.MaxPoolRow per output row: tap-outer,
// channel-inner, an output pixel's channels starting at −Inf and the
// window's first tap, then each tap in (ky, kx) order updating them with a
// strict >. Every element sees the compare sequence of a loop over its own
// window, so a window no tap of which beats −Inf (all NaN or −Inf, a
// diverged run) routes its gradient to the first tap.
func (p *MaxPool2DOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	x := in[0]
	if p.identity {
		return x
	}
	b := x.Shape[0]
	out := p.buf(slotOut, b, p.outH, p.outW, p.ch)
	p.argmax = p.indices32(out.Numel())
	inRow, orow, sample := p.inW*p.ch, p.outW*p.ch, p.inH*p.inW*p.ch
	parallel.For(b*p.outH, parallel.MinChunk(orow*p.kh*p.Size*costVector), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			bi, oy := r/p.outH, r%p.outH
			tensor.MaxPoolRow(out.Data[r*orow:(r+1)*orow], p.argmax[r*orow:(r+1)*orow],
				x.Data[bi*sample:(bi+1)*sample], oy*p.Stride*inRow, p.ch, inRow, p.kh, p.Size, p.Stride)
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
	orow, sample := p.outW*p.ch, p.inH*p.inW*p.ch
	// Disjoint windows (Stride >= Size): each input element gets at most one
	// contribution, so output rows scatter independently; overlapping ones
	// only per sample.
	items, rows := b*p.outH, 1
	if p.Stride < p.Size {
		items, rows = b, p.outH
	}
	parallel.For(items, parallel.MinChunk(rows*orow*costGather), func(lo, hi int) {
		for r := lo * rows; r < hi*rows; r++ {
			bi := r / p.outH
			d := dIn.Data[bi*sample : (bi+1)*sample]
			for oi := r * orow; oi < (r+1)*orow; oi++ {
				d[p.argmax[oi]] += dOut.Data[oi]
			}
		}
	})
	return p.grads(dIn)
}

// MaxPool1D is max pooling over [B, L, C] inputs: MaxPool2D with a 1×Size
// window on the [B, 1, L, C] view of its input.
type MaxPool1DOf[T tensor.Float] struct{ MaxPool2DOf[T] }

// NewMaxPool1D creates a 1-D pooling layer.
func NewMaxPool1D(name string, size, stride int) *MaxPool1D {
	p := &MaxPool1D{*NewMaxPool2D(name, size, stride)}
	p.kh = 1
	return p
}

func (p *MaxPool1DOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("maxpool1d wants 1 input, got %d", len(in))
	}
	s := in[0]
	if len(s) != 2 {
		return nil, fmt.Errorf("maxpool1d wants input (L, C), got %s", tensor.ShapeString(s))
	}
	out, _ := p.outShape("maxpool1d", [][]int{{1, s[0], s[1]}}) // a rank-3 shape always infers
	if err := p.indexable("maxpool1d"); err != nil {
		return nil, err
	}
	return out[1:], nil
}

func (p *MaxPool1DOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	return squeezeH(p.MaxPool2DOf.Forward(in, training))
}

func (p *MaxPool1DOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	g := p.MaxPool2DOf.Backward(dOut)
	squeezeH(g[0])
	return g
}

// squeezeH gives a [B, 1, W, C] result of the 2-D kernels the [B, W, C]
// shape of the 1-D layer that ran them. A tensor the layer was handed back
// (a pool degraded to the identity) already has it.
func squeezeH[T tensor.Float](t *tensor.TensorOf[T]) *tensor.TensorOf[T] {
	if len(t.Shape) == 4 {
		t.Shape = append(t.Shape[:1], t.Shape[2:]...)
	}
	return t
}
