package tensor

import (
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/parallel"
)

// naiveGemm is the triple-loop reference every blocked kernel is checked
// against.
func naiveGemm(dst, a, b []float64, m, k, n int, bias []float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			if bias != nil {
				s = bias[j]
			}
			for kk := 0; kk < k; kk++ {
				s += a[i*k+kk] * b[kk*n+j]
			}
			dst[i*n+j] = s
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

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
		if rng.Intn(8) == 0 {
			s[i] = 0 // post-ReLU activations are sparse
		}
	}
	return s
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

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, s := range gemmShapes {
		a := randSlice(rng, s.m*s.k)
		b := randSlice(rng, s.k*s.n)
		bias := randSlice(rng, s.n)
		for _, withBias := range []bool{false, true} {
			var bs []float64
			if withBias {
				bs = bias
			}
			got := make([]float64, s.m*s.n)
			want := make([]float64, s.m*s.n)
			Gemm(got, a, b, s.m, s.k, s.n, bs)
			naiveGemm(want, a, b, s.m, s.k, s.n, bs)
			if d := gemmMaxDiff(got, want); d > 1e-12 {
				t.Errorf("Gemm %dx%dx%d bias=%v: max diff %g", s.m, s.k, s.n, withBias, d)
			}
		}
	}
}

func TestGemmBTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range gemmShapes {
		a := randSlice(rng, s.m*s.n)
		b := randSlice(rng, s.k*s.n)
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
		a := randSlice(rng, s.m*s.k)
		b := randSlice(rng, s.m*s.n)
		seed := randSlice(rng, s.k*s.n)
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
	for name, fill := range map[string]func(*rand.Rand, int) []float64{"finite": randSlice, "specials": specialSlice} {
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
			if i := sameBitsF64(fwd, fwd0); i >= 0 {
				t.Errorf("%s workers=%d: Gemm elem %d = %g, serial %g (must be bit-identical)", name, w, i, fwd[i], fwd0[i])
			}
			if i := sameBitsF64(bt, bt0); i >= 0 {
				t.Errorf("%s workers=%d: GemmBT elem %d = %g, serial %g (must be bit-identical)", name, w, i, bt[i], bt0[i])
			}
			if i := sameBitsF64(at, at0); i >= 0 {
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
