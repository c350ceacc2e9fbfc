// Package tensor implements the dense, row-major tensors that the training
// stack (internal/nn), the checkpoint format (internal/checkpoint) and the
// weight-transfer engine (internal/core) operate on. The element type is
// generic over float32 | float64 (TensorOf, DType); Tensor is the float64
// instantiation, which remains the construction and transfer dtype of the
// search stack (see DESIGN.md §14).
//
// Tensors are deliberately simple: a shape and a flat backing slice. All
// layout logic (convolutions, pooling windows, ...) lives in the layers that
// interpret the data; this package only guarantees consistent shape handling,
// copying, and seeded random initialization.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// TensorOf is a dense row-major tensor over a Float element type. The zero
// value is an empty scalar-less tensor; use NewOf or FromDataOf to construct
// usable values. All kernels in this package are instantiated per element
// type with identical code, so the bit-identical parallel-vs-serial
// determinism contract holds separately for each dtype.
type TensorOf[T Float] struct {
	// Shape holds the extent of each dimension. A tensor with an empty
	// shape has exactly one element (a scalar).
	Shape []int
	// Data is the row-major backing storage; len(Data) == product(Shape).
	Data []T
}

// Tensor is the float64 instantiation — the historical element type and
// still the dtype networks are constructed and weight-transferred in.
type Tensor = TensorOf[float64]

// New returns a zero-filled float64 tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor { return NewOf[float64](shape...) }

// NewOf returns a zero-filled tensor of element type T with the given shape.
// It panics if any dimension is negative.
func NewOf[T Float](shape ...int) *TensorOf[T] {
	n := checkedNumel(shape)
	return &TensorOf[T]{Shape: append([]int(nil), shape...), Data: make([]T, n)}
}

// FromData wraps data in a float64 tensor of the given shape. The slice is
// used directly (not copied). It panics if len(data) does not match the shape.
func FromData(data []float64, shape ...int) *Tensor { return FromDataOf(data, shape...) }

// FromDataOf wraps data in a tensor of the given shape. The slice is used
// directly (not copied). It panics if len(data) does not match the shape.
func FromDataOf[T Float](data []T, shape ...int) *TensorOf[T] {
	n := checkedNumel(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &TensorOf[T]{Shape: append([]int(nil), shape...), Data: data}
}

func checkedNumel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Convert returns a fresh tensor with t's shape and every element converted
// to the destination type. float32 → float64 is exact; float64 → float32
// rounds to nearest. A float32-representable float64 tensor therefore
// survives Convert[float32] → Convert[float64] bit-for-bit, which is what
// lets networks be constructed and transferred in f64 and cast once before
// f32 training (DESIGN.md §14).
func Convert[To, From Float](t *TensorOf[From]) *TensorOf[To] {
	c := &TensorOf[To]{Shape: append([]int(nil), t.Shape...), Data: make([]To, len(t.Data))}
	for i, v := range t.Data {
		c.Data[i] = To(v)
	}
	return c
}

// Numel returns the number of elements.
func (t *TensorOf[T]) Numel() int { return len(t.Data) }

// Clone returns a deep copy of t.
func (t *TensorOf[T]) Clone() *TensorOf[T] {
	c := &TensorOf[T]{Shape: append([]int(nil), t.Shape...), Data: make([]T, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies the contents of src into t.
// The shapes must match exactly; otherwise an error is returned.
func (t *TensorOf[T]) CopyFrom(src *TensorOf[T]) error {
	if !SameShape(t.Shape, src.Shape) {
		return fmt.Errorf("tensor: copy shape mismatch: dst %v src %v", t.Shape, src.Shape)
	}
	copy(t.Data, src.Data)
	return nil
}

// Zero sets all elements to zero.
func (t *TensorOf[T]) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *TensorOf[T]) Fill(v T) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Scale multiplies every element by a.
func (t *TensorOf[T]) Scale(a T) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// AddScaled adds a*src to t element-wise. Shapes must match.
func (t *TensorOf[T]) AddScaled(src *TensorOf[T], a T) error {
	if !SameShape(t.Shape, src.Shape) {
		return fmt.Errorf("tensor: addScaled shape mismatch: dst %v src %v", t.Shape, src.Shape)
	}
	for i, v := range src.Data {
		t.Data[i] += T(a * v)
	}
	return nil
}

// Reshape returns a tensor sharing t's data with a new shape.
// The element count must be unchanged.
func (t *TensorOf[T]) Reshape(shape ...int) (*TensorOf[T], error) {
	if n := checkedNumel(shape); n != len(t.Data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.Shape, len(t.Data), shape, n)
	}
	return &TensorOf[T]{Shape: append([]int(nil), shape...), Data: t.Data}, nil
}

// SameShape reports whether two shapes are identical (same rank and dims).
func SameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ShapeString formats a shape like "(8, 8, 3)", matching the paper's
// shape-sequence notation.
func ShapeString(shape []int) string {
	parts := make([]string, len(shape))
	for i, d := range shape {
		parts[i] = fmt.Sprint(d)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Numel returns the number of elements implied by shape.
func Numel(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// RandNormal fills t with N(0, std²) samples drawn from rng. Samples are
// generated in float64 and rounded once, so the same rng stream produces
// the f32-rounded image of the f64 initialization.
func (t *TensorOf[T]) RandNormal(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = T(rng.NormFloat64() * std)
	}
}

// GlorotUniform fills t with samples from the Glorot (Xavier) uniform
// distribution for the given fan-in and fan-out, the Keras default
// initializer used by the paper's software stack.
func (t *TensorOf[T]) GlorotUniform(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range t.Data {
		t.Data[i] = T((float64(rng.Float64())*2 - 1) * limit)
	}
}

// HeNormal fills t with He-normal samples for the given fan-in, appropriate
// for ReLU-activated convolutional layers.
func (t *TensorOf[T]) HeNormal(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	t.RandNormal(rng, std)
}

// MaxAbs returns the largest absolute element value (0 for empty tensors).
func (t *TensorOf[T]) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of the elements, accumulated in float64
// for both dtypes.
func (t *TensorOf[T]) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(float64(v) * float64(v))
	}
	return math.Sqrt(s)
}

// String implements fmt.Stringer with a compact shape+norm summary.
func (t *TensorOf[T]) String() string {
	return fmt.Sprintf("Tensor%s‖%.4g‖", ShapeString(t.Shape), t.L2Norm())
}
