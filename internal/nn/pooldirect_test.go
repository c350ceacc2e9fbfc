package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// Test-only reference implementation: the MaxPool1D and MaxPool2D loops as
// they were before the 1-D pool became the 2-D one on a height-1 map, serial
// over the whole batch. Each output element compares its window's taps in
// ascending (ky, kx) order with a strict >, so a window no tap of which
// beats −Inf (all NaN or −Inf) routes its gradient to its first tap; the
// layers must keep that per-element compare sequence bit for bit.

// directMaxPool2DForward is the old MaxPool2D forward loop over [B, H, W, C].
func directMaxPool2DForward[T tensor.Float](x *tensor.TensorOf[T], size, stride int) (*tensor.TensorOf[T], []int) {
	b, inH, inW, ch := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outH, outW := (inH-size)/stride+1, (inW-size)/stride+1
	out := tensor.NewOf[T](b, outH, outW, ch)
	argmax := make([]int, out.Numel())
	inRow := inW * ch
	orow := outW * ch
	for r := 0; r < b*outH; r++ {
		bi, oy := r/outH, r%outH
		xb := bi * inH * inRow
		oi := r * orow
		for ox := 0; ox < outW; ox++ {
			for c := 0; c < ch; c++ {
				best := T(math.Inf(-1))
				bestIdx := xb + oy*stride*inRow + ox*stride*ch + c
				for ky := 0; ky < size; ky++ {
					y := oy*stride + ky
					for kx := 0; kx < size; kx++ {
						xp := ox*stride + kx
						idx := xb + y*inRow + xp*ch + c
						if v := x.Data[idx]; v > best {
							best, bestIdx = v, idx
						}
					}
				}
				out.Data[oi] = best
				argmax[oi] = bestIdx
				oi++
			}
		}
	}
	return out, argmax
}

// directMaxPool1DForward is the old MaxPool1D forward loop over [B, L, C].
func directMaxPool1DForward[T tensor.Float](x *tensor.TensorOf[T], size, stride int) (*tensor.TensorOf[T], []int) {
	b, inL, ch := x.Shape[0], x.Shape[1], x.Shape[2]
	outL := (inL-size)/stride + 1
	out := tensor.NewOf[T](b, outL, ch)
	argmax := make([]int, out.Numel())
	for r := 0; r < b*outL; r++ {
		bi, ol := r/outL, r%outL
		xb := bi * inL * ch
		oi := r * ch
		for c := 0; c < ch; c++ {
			best := T(math.Inf(-1))
			bestIdx := xb + ol*stride*ch + c
			for k := 0; k < size; k++ {
				idx := xb + (ol*stride+k)*ch + c
				if v := x.Data[idx]; v > best {
					best, bestIdx = v, idx
				}
			}
			out.Data[oi] = best
			argmax[oi] = bestIdx
			oi++
		}
	}
	return out, argmax
}

// directMaxPoolBackward is the old backward loop of both pools: each output
// gradient added onto its argmax input, in ascending output order.
func directMaxPoolBackward[T tensor.Float](dOut *tensor.TensorOf[T], argmax []int, inShape []int) *tensor.TensorOf[T] {
	dIn := tensor.NewOf[T](inShape...)
	for oi := range dOut.Data {
		dIn.Data[argmax[oi]] += dOut.Data[oi]
	}
	return dIn
}

// maxPoolWindows covers disjoint windows, overlapping ones, a stride past the
// window (taps skipped between windows) and a window larger than the input,
// where the pool degrades to the identity.
var maxPoolWindows = []struct {
	name         string
	size, stride int
}{
	{"disjoint", 2, 2},
	{"overlap", 3, 2},
	{"stride-over-size", 2, 3},
	{"identity", 12, 1},
}

// maxPoolChannels are the channel counts the tables run: one and three,
// below any vector of the max-pool row body, and 4, 8 and 16, the counts
// the applications use, which fill its 16- and 32-byte vectors at both
// element types.
var maxPoolChannels = []int{1, 3, 4, 8, 16}

// checkMaxPoolMatchesDirect runs a pool of every window in maxPoolWindows
// over a seeded [3, spatial..., ch] input for each of maxPoolChannels, at one
// and four workers (the grain lowered, so the four-worker leg splits), and
// wants the direct loops' output and input gradient, bit for bit. Inputs are
// whole numbers, so windows hold ties that only the tap order resolves —
// zeros of both signs among them, where the first tap's sign stays; every
// fifth is NaN, every seventh −Inf and every eleventh +Inf, and sample 0's
// first window holds only NaN and −Inf, so a window with no finite tap is
// among them.
func checkMaxPoolMatchesDirect[T tensor.Float](t *testing.T, newPool func(size, stride int) Layer, spatial []int,
	direct func(x *tensor.TensorOf[T], size, stride int) (*tensor.TensorOf[T], []int)) {
	splitEverything(t)
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for _, w := range maxPoolWindows {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", w.name, workers), func(t *testing.T) {
				parallel.SetWorkers(workers)
				for _, ch := range maxPoolChannels {
					t.Run(fmt.Sprintf("ch=%d", ch), func(t *testing.T) {
						checkMaxPoolWindow(t, newPool, append(slices.Clone(spatial), ch), w.size, w.stride, workers, direct)
					})
				}
			})
		}
	}
}

func checkMaxPoolWindow[T tensor.Float](t *testing.T, newPool func(size, stride int) Layer, in []int, size, stride, workers int,
	direct func(x *tensor.TensorOf[T], size, stride int) (*tensor.TensorOf[T], []int)) {
	l, err := convertLayer[T](newPool(size, stride))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.OutShape([][]int{in}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	x := tensor.NewOf[T](append([]int{3}, in...)...)
	x.RandNormal(rng, 1)
	ch := in[len(in)-1]
	identity := size > in[0] || (len(in) == 3 && size > in[1])
	for i := range x.Data {
		x.Data[i] = T(math.Round(float64(x.Data[i]))) // ties: the tap order picks the argmax
		pos := i / ch
		first := pos < size // in sample 0's first window
		if len(in) == 3 {
			first = pos < in[0]*in[1] && pos/in[1] < size && pos%in[1] < size
		}
		switch {
		case first && i%2 == 0, i%5 == 0:
			x.Data[i] = T(math.NaN())
		case first, i%7 == 0:
			x.Data[i] = T(math.Inf(-1))
		case i%11 == 0:
			x.Data[i] = T(math.Inf(1))
		}
	}
	wantOut, argmax := x, []int(nil)
	if !identity {
		wantOut, argmax = direct(x, size, stride)
	}
	var out, dIn, wantDIn *tensor.TensorOf[T]
	split, _ := splitCalls(func() {
		out = l.Forward([]*tensor.TensorOf[T]{x}, true)
		g := tensor.NewOf[T](out.Shape...)
		g.RandNormal(rng, 1)
		if wantDIn = g; !identity {
			wantDIn = directMaxPoolBackward(g, argmax, x.Shape)
		}
		dIn = l.Backward(g)[0]
	})
	if workers > 1 && !identity && split == 0 {
		t.Fatal("no pass split: the parallel leg did not run")
	}
	if !tensor.SameShape(out.Shape, wantOut.Shape) || !sameBits(out.Data, wantOut.Data) {
		t.Errorf("forward %v differs from the direct loop's %v", out.Shape, wantOut.Shape)
	}
	if !tensor.SameShape(dIn.Shape, wantDIn.Shape) || !sameBits(dIn.Data, wantDIn.Data) {
		t.Errorf("input gradient %v differs from the direct loop's %v", dIn.Shape, wantDIn.Shape)
	}
}

// TestMaxPool2DMatchesDirect pins MaxPool2D to its direct loops on 7×7
// maps, at f32 and f64.
func TestMaxPool2DMatchesDirect(t *testing.T) {
	newPool := func(size, stride int) Layer { return NewMaxPool2D("mp", size, stride) }
	t.Run("f64", func(t *testing.T) {
		checkMaxPoolMatchesDirect(t, newPool, []int{7, 7}, directMaxPool2DForward[float64])
	})
	t.Run("f32", func(t *testing.T) {
		checkMaxPoolMatchesDirect(t, newPool, []int{7, 7}, directMaxPool2DForward[float32])
	})
}

// TestMaxPool1DMatchesDirect pins MaxPool1D to its direct loops on length-11
// sequences, at f32 and f64.
func TestMaxPool1DMatchesDirect(t *testing.T) {
	newPool := func(size, stride int) Layer { return NewMaxPool1D("mp", size, stride) }
	t.Run("f64", func(t *testing.T) {
		checkMaxPoolMatchesDirect(t, newPool, []int{11}, directMaxPool1DForward[float64])
	})
	t.Run("f32", func(t *testing.T) {
		checkMaxPoolMatchesDirect(t, newPool, []int{11}, directMaxPool1DForward[float32])
	})
}

// TestMaxPoolRejectsUnindexableMaps: a max-pool's argmax holds int32
// indices within a sample, so shape inference refuses an input map of more
// than math.MaxInt32 elements per sample — before any batch exists or any
// buffer is sized — and accepts one of exactly that many.
func TestMaxPoolRejectsUnindexableMaps(t *testing.T) {
	for _, c := range []struct {
		name string
		l    Layer
		in   []int
		ok   bool
	}{
		{"2d", NewMaxPool2D("mp", 2, 2), []int{1 << 16, 1 << 15, 2}, false},
		{"2d/at the limit", NewMaxPool2D("mp", 1, 1), []int{1, 1, math.MaxInt32}, true},
		{"1d", NewMaxPool1D("mp", 2, 2), []int{1 << 30, 2}, false},
		{"1d/at the limit", NewMaxPool1D("mp", 1, 1), []int{math.MaxInt32, 1}, true},
	} {
		_, err := c.l.OutShape([][]int{c.in})
		if (err == nil) != c.ok {
			t.Errorf("%s: OutShape(%v) error %v, want an error: %v", c.name, c.in, err, !c.ok)
		}
	}
}
