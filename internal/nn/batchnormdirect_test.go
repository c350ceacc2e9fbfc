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

// Test-only reference implementation: BatchNorm's passes as they were
// before they went row by row, serial — one loop over the elements with
// i % C for the channel, and each reduction formed per fixed bnBlockRows
// block of rows, the blocks' partial sums combined in ascending block order.
// The layer must keep every channel's operation sequence bit for bit.

// directBNReduce is the blocked reduction: acc adds rows [r0, r1) into a
// cleared partial-sum slice per block, and the blocks are summed in order.
func directBNReduce[T tensor.Float](n, width int, acc func(ps []T, r0, r1 int)) []T {
	nb := (n + bnBlockRows - 1) / bnBlockRows
	partials := make([]T, nb*width)
	for blk := 0; blk < nb; blk++ {
		acc(partials[blk*width:(blk+1)*width], blk*bnBlockRows, min(n, (blk+1)*bnBlockRows))
	}
	out := make([]T, width)
	for blk := 0; blk < nb; blk++ {
		for c, v := range partials[blk*width : (blk+1)*width] {
			out[c] += v
		}
	}
	return out
}

// directBN is the reference layer's state: the parameters and running
// statistics it was handed, updated in place, and what Backward reads.
type directBN[T tensor.Float] struct {
	C                   int
	eps, momentum       float64
	gamma, beta, rm, rv []T
	dGamma, dBeta       []T
	seen                bool
	xhat, invStd        []T
}

func (b *directBN[T]) forward(x []T, training bool) []T {
	n := len(x) / b.C
	out := make([]T, len(x))
	if !training {
		for i := range x {
			c := i % b.C
			out[i] = b.gamma[c]*(x[i]-b.rm[c])/T(math.Sqrt(float64(b.rv[c])+b.eps)) + b.beta[c]
		}
		return out
	}
	mean := directBNReduce(n, b.C, func(ps []T, r0, r1 int) {
		for i := r0 * b.C; i < r1*b.C; i++ {
			ps[i%b.C] += x[i]
		}
	})
	for c := range mean {
		mean[c] /= T(n)
	}
	variance := directBNReduce(n, b.C, func(ps []T, r0, r1 int) {
		for i := r0 * b.C; i < r1*b.C; i++ {
			d := x[i] - mean[i%b.C]
			ps[i%b.C] += d * d
		}
	})
	b.invStd = make([]T, b.C)
	for c := range variance {
		variance[c] /= T(n)
		b.invStd[c] = T(1 / math.Sqrt(float64(variance[c])+b.eps))
	}
	b.xhat = make([]T, len(x))
	for i := range x {
		c := i % b.C
		xh := (x[i] - mean[c]) * b.invStd[c]
		b.xhat[i] = xh
		out[i] = b.gamma[c]*xh + b.beta[c]
	}
	if !b.seen {
		copy(b.rm, mean)
		copy(b.rv, variance)
		b.seen = true
	} else {
		mom, om := T(b.momentum), T(1-b.momentum)
		for c := 0; c < b.C; c++ {
			b.rm[c] = mom*b.rm[c] + om*mean[c]
			b.rv[c] = mom*b.rv[c] + om*variance[c]
		}
	}
	return out
}

func (b *directBN[T]) backward(dOut []T) []T {
	n := len(dOut) / b.C
	sums := directBNReduce(n, 2*b.C, func(ps []T, r0, r1 int) {
		for i := r0 * b.C; i < r1*b.C; i++ {
			c := i % b.C
			g := dOut[i]
			ps[c] += g
			ps[b.C+c] += g * b.xhat[i]
		}
	})
	sumDy, sumDyXHat := sums[:b.C], sums[b.C:]
	for c := 0; c < b.C; c++ {
		b.dGamma[c] += sumDyXHat[c]
		b.dBeta[c] += sumDy[c]
	}
	dIn := make([]T, len(dOut))
	nf := T(n)
	for i := range dOut {
		c := i % b.C
		dIn[i] = b.gamma[c] * b.invStd[c] / nf * (nf*dOut[i] - sumDy[c] - b.xhat[i]*sumDyXHat[c])
	}
	return dIn
}

// bnInput returns a [3, 11, 13, ch] input — 429 rows, four bnBlockRows
// blocks, the last one short — of normal values with ±0 and subnormals in
// every channel, and in channel 0 three copies of special, if it is not 0.
// One non-finite kind per input keeps every NaN of a channel one payload,
// whichever operand order the compiler gives an add.
func bnInput[T tensor.Float](rng *rand.Rand, ch int, special T) *tensor.TensorOf[T] {
	x := tensor.NewOf[T](3, 11, 13, ch)
	x.RandNormal(rng, 2)
	sub := T(math.SmallestNonzeroFloat32)
	if _, ok := any(sub).(float64); ok {
		sub = T(math.SmallestNonzeroFloat64)
	}
	for i := range x.Data {
		switch rng.Intn(16) {
		case 0:
			x.Data[i] = 0
		case 1:
			x.Data[i] = T(math.Copysign(0, -1))
		case 2:
			x.Data[i] = sub * T(rng.Intn(5)-2)
		}
	}
	if special != 0 {
		for _, r := range []int{0, 200, 428} {
			x.Data[r*ch] = special
		}
	}
	return x
}

// TestBatchNormMatchesDirect pins BatchNorm to its direct loops at f32 and
// f64, for 1, 3, 4, 8 and 16 channels, at one and four workers (the grain
// lowered, so the four-worker leg splits): two training forwards (the
// running statistics copied from the first batch, then averaged), a
// backward pass after each, accumulating onto non-zero gradients, and an
// inference forward — outputs, running statistics, input gradient, dGamma
// and dBeta bit for bit, on inputs holding ±0 and subnormals and, one kind
// per input, NaN, +Inf or −Inf.
func TestBatchNormMatchesDirect(t *testing.T) {
	t.Run("f64", testBatchNormMatchesDirect[float64])
	t.Run("f32", testBatchNormMatchesDirect[float32])
}

func testBatchNormMatchesDirect[T tensor.Float](t *testing.T) {
	splitEverything(t)
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	specials := []struct {
		name string
		v    T
	}{{"finite", 0}, {"NaN", T(math.NaN())}, {"+Inf", T(math.Inf(1))}, {"-Inf", T(math.Inf(-1))}}
	for _, ch := range []int{1, 3, 4, 8, 16} {
		for _, sp := range specials {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("ch=%d/%s/workers=%d", ch, sp.name, workers), func(t *testing.T) {
					parallel.SetWorkers(workers)
					rng := rand.New(rand.NewSource(int64(71 + ch)))
					l, err := convertLayer[T](NewBatchNorm("bn", ch))
					if err != nil {
						t.Fatal(err)
					}
					bn := l.(*BatchNormOf[T])
					if _, err := bn.OutShape([][]int{{11, 13, ch}}); err != nil {
						t.Fatal(err)
					}
					for _, p := range bn.Params() {
						for i := range p.W.Data {
							p.W.Data[i] = T(rng.NormFloat64())
						}
						if p.Grad != nil {
							for i := range p.Grad.Data {
								p.Grad.Data[i] = T(rng.NormFloat64())
							}
						}
					}
					for i := range bn.RunVar.W.Data {
						bn.RunVar.W.Data[i] *= bn.RunVar.W.Data[i]
					}
					ref := &directBN[T]{C: ch, eps: bn.Eps, momentum: bn.Momentum,
						gamma: slices.Clone(bn.Gamma.W.Data), beta: slices.Clone(bn.Beta.W.Data),
						rm: slices.Clone(bn.RunMean.W.Data), rv: slices.Clone(bn.RunVar.W.Data),
						dGamma: slices.Clone(bn.Gamma.Grad.Data), dBeta: slices.Clone(bn.Beta.Grad.Data)}
					expect := func(what string, got, want []T) {
						t.Helper()
						if !sameBits(got, want) {
							i := 0
							for i < len(got) && math.Float64bits(float64(got[i])) == math.Float64bits(float64(want[i])) {
								i++
							}
							t.Fatalf("%s differs from the direct loop's at element %d of %d", what, i, len(want))
						}
					}
					split, _ := splitCalls(func() {
						for step := 1; step <= 2; step++ {
							x := bnInput(rng, ch, sp.v)
							out := bn.Forward([]*tensor.TensorOf[T]{x}, true)
							expect(fmt.Sprintf("training forward %d", step), out.Data, ref.forward(x.Data, true))
							expect(fmt.Sprintf("running mean %d", step), bn.RunMean.W.Data, ref.rm)
							expect(fmt.Sprintf("running variance %d", step), bn.RunVar.W.Data, ref.rv)
							g := tensor.NewOf[T](out.Shape...)
							g.RandNormal(rng, 1)
							dIn := bn.Backward(g)[0]
							expect(fmt.Sprintf("input gradient %d", step), dIn.Data, ref.backward(g.Data))
							expect(fmt.Sprintf("dGamma %d", step), bn.Gamma.Grad.Data, ref.dGamma)
							expect(fmt.Sprintf("dBeta %d", step), bn.Beta.Grad.Data, ref.dBeta)
						}
						x := bnInput(rng, ch, sp.v)
						expect("inference forward", bn.Forward([]*tensor.TensorOf[T]{x}, false).Data, ref.forward(x.Data, false))
					})
					if workers > 1 && split == 0 {
						t.Fatal("no pass split: the parallel leg did not run")
					}
				})
			}
		}
	}
}
