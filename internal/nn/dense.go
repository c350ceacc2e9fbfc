package nn

import (
	"fmt"
	"math/rand"

	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// Dense is a fully connected layer: out = in·W + b with in [B, In].
type DenseOf[T tensor.Float] struct {
	stepBufsOf[T]
	name    string
	In, Out int
	W, B    *ParamOf[T]
	lastIn  *tensor.TensorOf[T]
}

// NewDense creates a dense layer with Glorot-uniform weights.
func NewDense(name string, in, out int, l2 float64, rng *rand.Rand) *Dense {
	w := tensor.New(in, out)
	w.GlorotUniform(rng, in, out)
	return &Dense{
		name: name, In: in, Out: out,
		W: &Param{Name: name + "/W", W: w, Grad: tensor.New(in, out), L2: l2},
		B: &Param{Name: name + "/b", W: tensor.New(out), Grad: tensor.New(out)},
	}
}

func (d *DenseOf[T]) Name() string          { return d.name }
func (d *DenseOf[T]) Params() []*ParamOf[T] { return []*ParamOf[T]{d.W, d.B} }

func (d *DenseOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("dense wants 1 input, got %d", len(in))
	}
	if len(in[0]) != 1 || in[0][0] != d.In {
		return nil, fmt.Errorf("dense wants input shape (%d), got %s", d.In, tensor.ShapeString(in[0]))
	}
	return []int{d.Out}, nil
}

// Forward computes out = in·W + b via the row-parallel matmul primitive in
// internal/tensor. Each output row is produced by exactly one batch shard
// with serial arithmetic, so results are identical for any worker count.
func (d *DenseOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	x := in[0]
	d.lastIn = x
	out := d.buf(slotOut, x.Shape[0], d.Out)
	if err := tensor.MatMulInto(out, x, d.W.W, d.B.W.Data); err != nil {
		panic(err) // shapes were validated by OutShape
	}
	return out
}

// Backward computes dIn = dOut·Wᵀ row-parallel (GemmBT via MatMulTInto)
// unless nobody consumes it, accumulates dW += Xᵀ·dOut with the blocked
// GemmAT kernel — the addressing the convolutions reach through GemmStrided — and
// dB += Σ dOut serially. Each dW row is produced by exactly one shard
// summing samples in ascending order, so weight gradients are bit-identical
// for any worker count.
func (d *DenseOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	x := d.lastIn
	b := x.Shape[0]
	var dIn *tensor.TensorOf[T]
	if !d.deadIn {
		dIn = d.buf(slotDIn, b, d.In)
		if err := tensor.MatMulTInto(dIn, dOut, d.W.W); err != nil {
			panic(err)
		}
	}
	db := d.B.Grad.Data
	for i := 0; i < b; i++ {
		for j, g := range dOut.Data[i*d.Out : (i+1)*d.Out] {
			db[j] += g
		}
	}
	tensor.GemmAT(d.W.Grad.Data, x.Data, dOut.Data, b, d.In, d.Out)
	return d.grads(dIn)
}

// Identity passes its input through unchanged — the tensors it returns are
// the ones it was handed. It is the "skip" choice many variable nodes offer.
type IdentityOf[T tensor.Float] struct {
	stepBufsOf[T]
	name string
}

// NewIdentity creates an identity layer.
func NewIdentity(name string) *Identity { return &Identity{name: name} }

func (l *IdentityOf[T]) Name() string          { return l.name }
func (l *IdentityOf[T]) Params() []*ParamOf[T] { return nil }

func (l *IdentityOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("identity wants 1 input, got %d", len(in))
	}
	return append([]int(nil), in[0]...), nil
}

func (l *IdentityOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	return in[0]
}

func (l *IdentityOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	return l.grads(dOut)
}

// Flatten reshapes [B, d1, ..., dk] to [B, d1*...*dk]. Both passes return a
// view: a header the layer keeps over the storage of what it was handed.
type FlattenOf[T tensor.Float] struct {
	stepBufsOf[T]
	name     string
	inShape  []int
	out, dIn tensor.TensorOf[T]
}

// NewFlatten creates a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

func (l *FlattenOf[T]) Name() string          { return l.name }
func (l *FlattenOf[T]) Params() []*ParamOf[T] { return nil }

func (l *FlattenOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("flatten wants 1 input, got %d", len(in))
	}
	l.inShape = append([]int(nil), in[0]...)
	return []int{tensor.Numel(in[0])}, nil
}

func (l *FlattenOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	b := in[0].Shape[0]
	l.out.Data, l.out.Shape = in[0].Data, append(l.out.Shape[:0], b, in[0].Numel()/b)
	return &l.out
}

func (l *FlattenOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	l.dIn.Data, l.dIn.Shape = dOut.Data, append(append(l.dIn.Shape[:0], dOut.Shape[0]), l.inShape...)
	return l.grads(&l.dIn)
}

// Concat concatenates flat feature vectors along the feature axis:
// k inputs of shape [B, Di] become [B, ΣDi]. It is the merge operator of the
// Uno-like multi-input search space.
type ConcatOf[T tensor.Float] struct {
	stepBufsOf[T]
	name string
	dims []int
}

// NewConcat creates a concat layer.
func NewConcat(name string) *Concat { return &Concat{name: name} }

func (l *ConcatOf[T]) Name() string          { return l.name }
func (l *ConcatOf[T]) Params() []*ParamOf[T] { return nil }

func (l *ConcatOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("concat wants at least 1 input")
	}
	total := 0
	l.dims = l.dims[:0]
	for _, s := range in {
		if len(s) != 1 {
			return nil, fmt.Errorf("concat wants flat inputs, got %s", tensor.ShapeString(s))
		}
		l.dims = append(l.dims, s[0])
		total += s[0]
	}
	return []int{total}, nil
}

func (l *ConcatOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	b := in[0].Shape[0]
	total := 0
	for _, d := range l.dims {
		total += d
	}
	out := l.buf(slotOut, b, total)
	for i := 0; i < b; i++ {
		off := i * total
		for k, t := range in {
			d := l.dims[k]
			copy(out.Data[off:off+d], t.Data[i*d:(i+1)*d])
			off += d
		}
	}
	return out
}

func (l *ConcatOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	b := dOut.Shape[0]
	total := dOut.Shape[1]
	l.ret = l.ret[:0]
	for k, d := range l.dims {
		l.ret = append(l.ret, l.buf(slotDIn+k, b, d))
	}
	dIns := l.ret
	for i := 0; i < b; i++ {
		off := i * total
		for k, d := range l.dims {
			copy(dIns[k].Data[i*d:(i+1)*d], dOut.Data[off:off+d])
			off += d
		}
	}
	return dIns
}

// ActKind enumerates the supported activation functions.
type ActKind int

// Activation kinds available to the search spaces.
const (
	ReLU ActKind = iota
	Tanh
	Sigmoid
)

// String returns the Keras-style activation name.
func (k ActKind) String() string {
	switch k {
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	}
	return fmt.Sprintf("ActKind(%d)", int(k))
}

// Activation applies an element-wise nonlinearity.
type ActivationOf[T tensor.Float] struct {
	stepBufsOf[T]
	name    string
	Kind    ActKind
	lastOut *tensor.TensorOf[T]
	lastIn  *tensor.TensorOf[T]
}

// NewActivation creates an activation layer.
func NewActivation(name string, kind ActKind) *Activation {
	return &Activation{name: name, Kind: kind}
}

func (l *ActivationOf[T]) Name() string          { return l.name }
func (l *ActivationOf[T]) Params() []*ParamOf[T] { return nil }

func (l *ActivationOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("activation wants 1 input, got %d", len(in))
	}
	return append([]int(nil), in[0]...), nil
}

// costs returns the per-element cost of the kind's forward and backward
// loops: ReLU's passes are vector bodies (tensor.ReLU, tensor.ReLUGrad), and
// so are the forward passes of Tanh and Sigmoid (tensor.Tanh,
// tensor.Sigmoid: an exponential, a divide and blends per element); their
// gradient is a product of cached outputs.
func (k ActKind) costs() (fwd, bwd int) {
	switch k {
	case ReLU:
		return costVector, costVector
	case Tanh:
		return costGather, costStream
	}
	return costStream, costStream
}

// Forward and Backward shard element ranges; every element is written by
// exactly one shard with the serial arithmetic, so outputs are bit-identical
// for any worker count.

func (l *ActivationOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	x := in[0]
	out := l.buf(slotOut, x.Shape...)
	cost, _ := l.Kind.costs()
	parallel.For(len(x.Data), parallel.MinChunk(cost), func(lo, hi int) {
		xd, od := x.Data[lo:hi], out.Data[lo:hi]
		switch l.Kind {
		case ReLU:
			tensor.ReLU(od, xd)
		case Tanh:
			tensor.Tanh(od, xd)
		case Sigmoid:
			tensor.Sigmoid(od, xd)
		}
	})
	l.lastIn, l.lastOut = x, out
	return out
}

func (l *ActivationOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	dIn := l.buf(slotDIn, dOut.Shape...)
	_, cost := l.Kind.costs()
	parallel.For(len(dOut.Data), parallel.MinChunk(cost), func(lo, hi int) {
		gd, dd := dOut.Data[lo:hi], dIn.Data[lo:hi]
		switch l.Kind {
		case ReLU:
			tensor.ReLUGrad(dd, l.lastIn.Data[lo:hi], gd)
		case Tanh:
			for i, y := range l.lastOut.Data[lo:hi] {
				dd[i] = gd[i] * (1 - T(y*y))
			}
		case Sigmoid:
			for i, y := range l.lastOut.Data[lo:hi] {
				dd[i] = gd[i] * y * (1 - y)
			}
		}
	})
	return l.grads(dIn)
}

// Dropout zeroes each activation with probability Rate during training and
// scales the survivors by 1/(1-Rate) (inverted dropout). At inference (and
// at rate 0) it is the identity: both passes return what they were handed.
// Its masks take one rng.Float64 per element, in order; where the network
// handed the layer rng's Stream (NetworkOf.DrawFrom), the same draws are
// made in bulk.
type DropoutOf[T tensor.Float] struct {
	stepBufsOf[T]
	name   string
	Rate   float64
	rng    *rand.Rand
	stream *tensor.Stream // rng's source, or nil
	mask   []T            // keep or +0 per element; nil after an identity pass
}

// NewDropout creates a dropout layer drawing masks from rng.
func NewDropout(name string, rate float64, rng *rand.Rand) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v out of [0,1)", rate))
	}
	return &Dropout{name: name, Rate: rate, rng: rng}
}

func (l *DropoutOf[T]) Name() string          { return l.name }
func (l *DropoutOf[T]) Params() []*ParamOf[T] { return nil }

func (l *DropoutOf[T]) OutShape(in [][]int) ([]int, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("dropout wants 1 input, got %d", len(in))
	}
	return append([]int(nil), in[0]...), nil
}

func (l *DropoutOf[T]) Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T] {
	x := in[0]
	if !training || l.Rate == 0 {
		l.mask = nil
		return x
	}
	out := l.buf(slotOut, x.Shape...)
	l.mask = l.buf(slotAux, len(x.Data)).Data
	keep := T(1 / (1 - l.Rate))
	if l.stream != nil {
		tensor.Dropout(out.Data, l.mask, x.Data, keep, l.Rate, l.stream)
	} else {
		tensor.DropoutEach(out.Data, l.mask, x.Data, keep, l.Rate, l.rng)
	}
	return out
}

func (l *DropoutOf[T]) Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	if l.mask == nil {
		return l.grads(dOut)
	}
	dIn := l.buf(slotDIn, dOut.Shape...)
	tensor.Mul(dIn.Data, dOut.Data, l.mask)
	return l.grads(dIn)
}
