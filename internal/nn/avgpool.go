package nn

import (
	"fmt"

	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// AvgPool2D is average pooling over [B, H, W, C] inputs with a square
// window, its geometry the one every pool shares (window, pool.go).
type AvgPool2DOf[T tensor.Float] struct {
	stepBufsOf[T]
	window
}

// NewAvgPool2D creates an average-pooling layer.
func NewAvgPool2D(name string, size, stride int) *AvgPool2D {
	return &AvgPool2D{window: newWindow(name, size, stride)}
}

func (p *AvgPool2DOf[T]) Params() []*ParamOf[T] { return nil }

func (p *AvgPool2DOf[T]) OutShape(in [][]int) ([]int, error) { return p.outShape("avgpool2d", in) }

func (p *AvgPool2DOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	x := in[0]
	if p.identity {
		return x
	}
	b := x.Shape[0]
	out := p.buf(slotOut, b, p.outH, p.outW, p.ch)
	inRow := p.inW * p.ch
	orow := p.outW * p.ch
	inv := T(1.0 / float64(p.Size*p.Size))
	// Output rows across the batch shard independently; each window sum runs
	// (ky, kx)-ascending exactly like the serial loop, so results are
	// bit-identical for any worker count (see pool.go).
	parallel.For(b*p.outH, parallel.MinChunk(orow*p.Size*p.Size*costGather), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			bi, oy := r/p.outH, r%p.outH
			xb := bi * p.inH * inRow
			oi := r * orow
			for ox := 0; ox < p.outW; ox++ {
				for c := 0; c < p.ch; c++ {
					var sum T
					for ky := 0; ky < p.Size; ky++ {
						y := oy*p.Stride + ky
						for kx := 0; kx < p.Size; kx++ {
							sum += x.Data[xb+y*inRow+(ox*p.Stride+kx)*p.ch+c]
						}
					}
					out.Data[oi] = sum * inv
					oi++
				}
			}
		}
	})
	return out
}

func (p *AvgPool2DOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	if p.identity {
		return p.grads(dOut)
	}
	b := dOut.Shape[0]
	dIn := p.buf(slotDIn, b, p.inH, p.inW, p.ch)
	dIn.Zero()
	inRow := p.inW * p.ch
	orow := p.outW * p.ch
	inv := T(1.0 / float64(p.Size*p.Size))
	// scatterRows spreads the output rows [lo, hi) back over their windows
	// in the serial (ox, c, ky, kx) order.
	scatterRows := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			bi, oy := r/p.outH, r%p.outH
			xb := bi * p.inH * inRow
			oi := r * orow
			for ox := 0; ox < p.outW; ox++ {
				for c := 0; c < p.ch; c++ {
					g := dOut.Data[oi] * inv
					oi++
					for ky := 0; ky < p.Size; ky++ {
						y := oy*p.Stride + ky
						for kx := 0; kx < p.Size; kx++ {
							dIn.Data[xb+y*inRow+(ox*p.Stride+kx)*p.ch+c] += g
						}
					}
				}
			}
		}
	}
	// Disjoint windows: output rows write disjoint input regions. Overlapping
	// ones: only samples are independent; within one the scatter keeps the
	// serial ascending output order (see pool.go).
	items, rows := b*p.outH, 1
	if p.Stride < p.Size {
		items, rows = b, p.outH
	}
	parallel.For(items, parallel.MinChunk(rows*orow*p.Size*p.Size*costGather), func(lo, hi int) {
		scatterRows(lo*rows, hi*rows)
	})
	return p.grads(dIn)
}

// GlobalAvgPool averages each channel over all spatial positions, turning
// [B, ..., C] into [B, C].
type GlobalAvgPoolOf[T tensor.Float] struct {
	stepBufsOf[T]
	name    string
	inShape []int
	spatial int
}

// NewGlobalAvgPool creates a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

func (p *GlobalAvgPoolOf[T]) Name() string          { return p.name }
func (p *GlobalAvgPoolOf[T]) Params() []*ParamOf[T] { return nil }

func (p *GlobalAvgPoolOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("globalavgpool wants 1 input, got %d", len(in))
	}
	s := in[0]
	if len(s) < 2 {
		return nil, fmt.Errorf("globalavgpool wants spatial input, got %s", tensor.ShapeString(s))
	}
	p.inShape = append([]int(nil), s...)
	c := s[len(s)-1]
	p.spatial = tensor.Numel(s) / c
	return []int{c}, nil
}

func (p *GlobalAvgPoolOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	x := in[0]
	b := x.Shape[0]
	c := p.inShape[len(p.inShape)-1]
	out := p.buf(slotOut, b, c)
	inv := T(1.0 / float64(p.spatial))
	// Samples reduce independently; each per-channel sum runs from zero in
	// ascending spatial order exactly like the serial loop, so results are
	// bit-identical for any worker count.
	parallel.For(b, parallel.MinChunk(p.spatial*c*costStream), func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			base := bi * p.spatial * c
			ob := out.Data[bi*c : (bi+1)*c]
			clear(ob)
			for s := 0; s < p.spatial; s++ {
				row := x.Data[base+s*c : base+(s+1)*c]
				for ci, v := range row {
					ob[ci] += v
				}
			}
			for ci := range ob {
				ob[ci] *= inv
			}
		}
	})
	return out
}

func (p *GlobalAvgPoolOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	b := dOut.Shape[0]
	c := p.inShape[len(p.inShape)-1]
	dIn := p.buf(slotDIn, b, p.spatial, c)
	dIn.Shape = append(dIn.Shape[:1], p.inShape...) // [b, spatial..., c]
	inv := T(1.0 / float64(p.spatial))
	parallel.For(b, parallel.MinChunk(p.spatial*c*costStream), func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			base := bi * p.spatial * c
			gb := dOut.Data[bi*c : (bi+1)*c]
			for s := 0; s < p.spatial; s++ {
				row := dIn.Data[base+s*c : base+(s+1)*c]
				for ci := range row {
					row[ci] = gb[ci] * inv
				}
			}
		}
	})
	return p.grads(dIn)
}

// Add sums two equally shaped activations element-wise — the residual
// (skip) connection primitive.
type AddOf[T tensor.Float] struct {
	stepBufsOf[T]
	name string
}

// NewAdd creates an element-wise addition layer.
func NewAdd(name string) *Add { return &Add{name: name} }

func (a *AddOf[T]) Name() string          { return a.name }
func (a *AddOf[T]) Params() []*ParamOf[T] { return nil }

func (a *AddOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("add wants 2 inputs, got %d", len(in))
	}
	if !tensor.SameShape(in[0], in[1]) {
		return nil, fmt.Errorf("add wants equal shapes, got %s and %s",
			tensor.ShapeString(in[0]), tensor.ShapeString(in[1]))
	}
	return append([]int(nil), in[0]...), nil
}

func (a *AddOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	out := a.buf(slotOut, in[0].Shape...)
	parallel.For(len(out.Data), parallel.MinChunk(costStream), func(lo, hi int) {
		od, x := out.Data[lo:hi], in[0].Data[lo:hi]
		for i, v := range in[1].Data[lo:hi] {
			od[i] = x[i] + v
		}
	})
	return out
}

// Backward hands the same tensor — the dOut it was given — to both inputs.
func (a *AddOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	return a.grads(dOut, dOut)
}
