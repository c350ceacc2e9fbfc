package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/parallel"
)

// naiveTile is the tile's formula (gemm.go) written out element by element:
// the independent check of gemmTileGo, the one Go copy of it.
func naiveTile[T Float](dst, init []T, initStride int, a []T, ars int, rowAt []int, ats, tw int, groups []int, b []T, rows, kc, n int) {
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			var s T
			if init != nil {
				s = init[r*initStride+j]
			}
			for t := 0; t < kc; t++ {
				at := r*ars + groups[t/tw] + t%tw*ats
				if rowAt != nil {
					at += rowAt[r]
				}
				s += a[at] * b[t*n+j]
			}
			dst[r*n+j] = s
		}
	}
}

func naiveGemmBT(dst, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += a[i*n+j] * b[kk*n+j]
			}
			dst[i*k+kk] = s
		}
	}
}

func naiveGemmAT(dst, a, b []float64, m, k, n int) {
	for kk := 0; kk < k; kk++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for mm := 0; mm < m; mm++ {
				s += a[mm*k+kk] * b[mm*n+j]
			}
			dst[kk*n+j] += s
		}
	}
}

// randFloats returns n normal values of T, one in eight of them zero (as
// post-ReLU activations are).
func randFloats[T Float](rng *rand.Rand, n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = T(rng.NormFloat64())
		if rng.Intn(8) == 0 {
			s[i] = 0
		}
	}
	return s
}

// specialFloats is randFloats with every IEEE corner among the values:
// signed zeros, signed infinities, NaNs and subnormals. No path skips a
// zero operand, so 0·Inf must come out NaN exactly where the Go definition
// makes it one.
func specialFloats[T Float](rng *rand.Rand, n int) []T {
	corners := elemCorners[T]()
	s := randFloats[T](rng, n)
	for i := range s {
		if rng.Intn(16) == 0 {
			s[i] = corners[rng.Intn(len(corners))]
		}
	}
	return s
}

// sameBits reports the first index at which got and want are not the same
// bits, or -1. Any NaN matches any NaN: which payload survives NaN+NaN
// depends on the operand order of the add instruction, which IEEE and the
// accumulation-order contract both leave open.
func sameBits[T Float](got, want []T) int {
	for i := range want {
		g, w := got[i], want[i]
		if bitsOf(g) != bitsOf(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

func gemmMaxDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// gemmShapes crosses the k-block boundary (gemmKBlock = 240) in both
// directions and includes degenerate single-row/column cases.
var gemmShapes = []struct{ m, k, n int }{
	{1, 7, 5},
	{3, 240, 8},
	{5, 241, 9},
	{17, 600, 4},
	{64, 72, 16}, // a CIFAR conv's nominal product shape
	{2, 1, 1},
}

// TestGemmMatchesNaive holds Gemm (from +0 and from a bias), GemmAT
// (accumulating into a non-zero dst) and GemmStrided (rows and groups out
// of order and overlapping) to naiveTile bit for bit, on every body the
// host runs, over operands that are finite and operands with every IEEE
// corner among them. TestGemmF32MatchesNaive is the same test at f32.
func TestGemmMatchesNaive(t *testing.T)    { eachBody(t, testGemmMatchesNaive[float64]) }
func TestGemmF32MatchesNaive(t *testing.T) { eachBody(t, testGemmMatchesNaive[float32]) }

func testGemmMatchesNaive[T Float](t *testing.T) {
	for name, fill := range map[string]func(*rand.Rand, int) []T{"finite": randFloats[T], "specials": specialFloats[T]} {
		rng := rand.New(rand.NewSource(41))
		check := func(op string, s struct{ m, k, n int }, got, want []T) {
			t.Helper()
			if i := sameBits(got, want); i >= 0 {
				t.Errorf("%s: %s %dx%dx%d: elem %d = %v, naive %v", name, op, s.m, s.k, s.n, i, got[i], want[i])
			}
		}
		for _, s := range gemmShapes {
			a, b, g := fill(rng, s.m*s.k), fill(rng, s.k*s.n), fill(rng, s.m*s.n)
			for _, bias := range [][]T{nil, fill(rng, s.n)} {
				got, want := make([]T, s.m*s.n), make([]T, s.m*s.n)
				Gemm(got, a, b, s.m, s.k, s.n, bias)
				naiveTile(want, bias, 0, a, s.k, nil, 1, s.k, []int{0}, b, s.m, s.k, s.n)
				check(fmt.Sprintf("Gemm(bias=%v)", bias != nil), s, got, want)
			}
			// dst [k, n] += aᵀ·g: a read transposed, the m axis reduced.
			got := fill(rng, s.k*s.n)
			want := append([]T(nil), got...)
			GemmAT(got, a, g, s.m, s.k, s.n)
			naiveTile(want, want, s.n, a, 1, nil, s.k, s.m, []int{0}, g, s.k, s.m, s.n)
			check("GemmAT", s, got, want)
		}
		a, b := fill(rng, 64), fill(rng, 12*5)
		rowAt, groups := []int{5, 0, 9, 2, 2}, []int{5, 0, 12, 3}
		for _, init := range []string{"nil", "bias", "dst"} {
			got, want := fill(rng, len(rowAt)*5), make([]T, len(rowAt)*5)
			gi, wi, stride := []T(nil), []T(nil), 0
			switch init {
			case "bias":
				gi = fill(rng, 5)
				wi = gi
			case "dst":
				copy(want, got)
				gi, wi, stride = got, want, 5
			}
			GemmStrided(got, gi, stride, a, rowAt, groups, 3, 7, b, 5)
			naiveTile(want, wi, stride, a, 0, rowAt, 7, 3, groups, b, len(rowAt), 12, 5)
			check("GemmStrided(init="+init+")", struct{ m, k, n int }{len(rowAt), 12, 5}, got, want)
		}
	}
}

func TestGemmBTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range gemmShapes {
		a := randFloats[float64](rng, s.m*s.n)
		b := randFloats[float64](rng, s.k*s.n)
		got := make([]float64, s.m*s.k)
		want := make([]float64, s.m*s.k)
		GemmBT(got, a, b, s.m, s.n, s.k)
		naiveGemmBT(want, a, b, s.m, s.n, s.k)
		if d := gemmMaxDiff(got, want); d > 1e-12 {
			t.Errorf("GemmBT %dx%dx%d: max diff %g", s.m, s.n, s.k, d)
		}
	}
}

func TestGemmATMatchesNaiveAndAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, s := range gemmShapes {
		a := randFloats[float64](rng, s.m*s.k)
		b := randFloats[float64](rng, s.m*s.n)
		seed := randFloats[float64](rng, s.k*s.n)
		got := append([]float64(nil), seed...)
		want := append([]float64(nil), seed...)
		GemmAT(got, a, b, s.m, s.k, s.n)
		naiveGemmAT(want, a, b, s.m, s.k, s.n)
		if d := gemmMaxDiff(got, want); d > 1e-12 {
			t.Errorf("GemmAT %dx%dx%d: max diff %g (accumulation into non-zero dst)", s.m, s.k, s.n, d)
		}
	}
}

// TestGemmKernelsDeterministicAcrossWorkers pins the bit-identical contract:
// the blocked kernels must produce the same bits at any worker count,
// including shapes whose reduction spans several cache tiles, an odd row
// count (so a row that shares a block serially is alone in a shard
// elsewhere) and operands that are not finite. The second half is what a
// zero-skip on some rows and not others broke: 0·Inf came out NaN or was
// skipped depending on the sharding. The shape is far under the pool's
// grain, so the grain is lowered and every parallel leg must report its
// three products split.
func TestGemmKernelsDeterministicAcrossWorkers(t *testing.T) {
	eachBody(t, testGemmKernelsDeterministicAcrossWorkers)
}

func testGemmKernelsDeterministicAcrossWorkers(t *testing.T) {
	const m, k, n = 37, 517, 13
	splitEverything(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for name, fill := range map[string]func(*rand.Rand, int) []float64{"finite": randFloats[float64], "specials": specialFloats[float64]} {
		rng := rand.New(rand.NewSource(44))
		a, b, g := fill(rng, m*k), fill(rng, k*n), fill(rng, m*n)
		run := func() (fwd, bt, at []float64) {
			fwd, bt, at = make([]float64, m*n), make([]float64, m*k), make([]float64, k*n)
			Gemm(fwd, a, b, m, k, n, nil)
			GemmBT(bt, g, b, m, n, k)
			GemmAT(at, a, g, m, k, n)
			return
		}
		parallel.SetWorkers(1)
		fwd0, bt0, at0 := run()
		for _, w := range []int{2, 3, 8} {
			parallel.SetWorkers(w)
			var fwd, bt, at []float64
			if split := splitCalls(func() { fwd, bt, at = run() }); split != 3 {
				t.Fatalf("%s workers=%d: %d of 3 products split: the parallel leg did not run", name, w, split)
			}
			if i := sameBits(fwd, fwd0); i >= 0 {
				t.Errorf("%s workers=%d: Gemm elem %d = %g, serial %g (must be bit-identical)", name, w, i, fwd[i], fwd0[i])
			}
			if i := sameBits(bt, bt0); i >= 0 {
				t.Errorf("%s workers=%d: GemmBT elem %d = %g, serial %g (must be bit-identical)", name, w, i, bt[i], bt0[i])
			}
			if i := sameBits(at, at0); i >= 0 {
				t.Errorf("%s workers=%d: GemmAT elem %d = %g, serial %g (must be bit-identical)", name, w, i, at[i], at0[i])
			}
		}
	}

	// The smallest case: three rows of 0 against +Inf. Every row is NaN,
	// whether it shares a block with its neighbour or is its own shard.
	for w := 1; w <= 3; w++ {
		parallel.SetWorkers(w)
		out := []float64{1, 1, 1}
		split := splitCalls(func() { Gemm(out, []float64{0, 0, 0}, []float64{math.Inf(1)}, 3, 1, 1, nil) })
		if (split == 1) != (w > 1) {
			t.Fatalf("workers=%d: 0·Inf product split %d times", w, split)
		}
		for i, v := range out {
			if v == v {
				t.Errorf("workers=%d: 0·Inf row %d = %g, want NaN", w, i, v)
			}
		}
	}
}
