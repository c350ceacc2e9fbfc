package nn

import (
	"math/bits"

	"swtnas/internal/tensor"
)

// scratchOf is the one mechanism behind every buffer a training step writes
// into (DESIGN.md §9.4): numbered tensors plus two index tables, one of
// ints and one of int32s, sized at first use and kept. Each built-in layer
// embeds one (in a stepBufsOf) for its output, its input gradients and what
// its Backward caches; a network has one for the gradient sums of fan-out
// nodes, Fit has one for the minibatch.
//
// Nothing here clears: a slot holds what its last use left, so a caller
// writes every element or zeroes first. Only accumulation targets need the
// latter — col2im, the pool scatters, reductions, fan-out sums.
type scratchOf[T tensor.Float] struct {
	slots   []*tensor.TensorOf[T]
	index   []int
	index32 []int32
}

// Slots every layer numbers alike; a layer's own start at slotAux.
const (
	slotOut = iota
	slotDIn
	slotAux
)

// buf returns slot i at the given shape: a re-slice while the element count
// fits the slot's capacity (the short last batch, Evaluate's batches),
// a reallocation at exactly that count otherwise. The tensor is the slot
// itself — the next buf(i, …) reshapes it in place.
func (s *scratchOf[T]) buf(i int, shape ...int) *tensor.TensorOf[T] {
	for len(s.slots) <= i {
		s.slots = append(s.slots, &tensor.TensorOf[T]{})
	}
	t := s.slots[i]
	n := tensor.Numel(shape)
	if cap(t.Data) < n {
		t.Data = make([]T, n)
	}
	t.Data = t.Data[:n]
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// indices returns the index table at length n, contents unspecified.
func (s *scratchOf[T]) indices(n int) []int {
	if cap(s.index) < n {
		s.index = make([]int, n)
	}
	s.index = s.index[:n]
	return s.index
}

// indices32 returns the int32 index table at length n, contents
// unspecified.
func (s *scratchOf[T]) indices32(n int) []int32 {
	if cap(s.index32) < n {
		s.index32 = make([]int32, n)
	}
	s.index32 = s.index32[:n]
	return s.index32
}

// bytes is the element storage the scratch retains.
func (s *scratchOf[T]) bytes() int {
	n := cap(s.index)*bits.UintSize/8 + cap(s.index32)*4
	for _, t := range s.slots {
		n += cap(t.Data) * tensor.DTypeFor[T]().Size()
	}
	return n
}

// stepBufsOf is what a built-in layer embeds: its scratch, the slice its
// Backward returns, and deadIn, set by Network.Add when no input of the
// layer leads back to a parameter — nobody reads its input gradients, so
// Backward skips them and returns nil in their place.
type stepBufsOf[T tensor.Float] struct {
	scratchOf[T]
	ret    []*tensor.TensorOf[T]
	deadIn bool
}

// stepLayer is how a network reaches the buffers of the layers it holds.
type stepLayerOf[T tensor.Float] interface {
	stepBufs() *stepBufsOf[T]
}

func (s *stepBufsOf[T]) stepBufs() *stepBufsOf[T] { return s }

// grads returns its arguments in the retained Backward result slice.
func (s *stepBufsOf[T]) grads(g ...*tensor.TensorOf[T]) []*tensor.TensorOf[T] {
	s.ret = append(s.ret[:0], g...)
	return s.ret
}
