package tensor

import (
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/parallel"
)

// The float32 instantiations of the blocked kernels get their own suite:
// the f64 tests pin numerics against a naive reference, these pin the two
// per-dtype contracts that matter for f32 — agreement with a naive f32
// triple loop (same rounding class, loose tolerance) and bit-identical
// results at every worker count (exact, no tolerance).

func naiveGemmF32(dst, a, b []float32, m, k, n int, bias []float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
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

func randSliceF32(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
		if rng.Intn(8) == 0 {
			s[i] = 0 // exercise the zero-skip path
		}
	}
	return s
}

func maxDiffF32(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

// TestGemmF32MatchesNaive checks the blocked f32 kernel against a naive f32
// triple loop. Both accumulate in float32 but in different orders, so the
// tolerance is the f32 rounding envelope for k<=600 reductions of unit-scale
// values, not the 1e-12 the f64 suite uses.
func TestGemmF32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, s := range gemmShapes {
		a := randSliceF32(rng, s.m*s.k)
		b := randSliceF32(rng, s.k*s.n)
		bias := randSliceF32(rng, s.n)
		for _, withBias := range []bool{false, true} {
			var bs []float32
			if withBias {
				bs = bias
			}
			got := make([]float32, s.m*s.n)
			want := make([]float32, s.m*s.n)
			Gemm(got, a, b, s.m, s.k, s.n, bs)
			naiveGemmF32(want, a, b, s.m, s.k, s.n, bs)
			if d := maxDiffF32(got, want); d > 1e-3 {
				t.Errorf("Gemm[float32] %dx%dx%d bias=%v: max diff %g", s.m, s.k, s.n, withBias, d)
			}
		}
	}
}

// TestGemmF32AgreesWithF64 bounds the rounding gap between the f32 and f64
// instantiations on identical inputs — the per-element error of an f32
// reduction, not a correctness bug, so the bound scales with k.
func TestGemmF32AgreesWithF64(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, s := range gemmShapes {
		a64 := randSlice(rng, s.m*s.k)
		b64 := randSlice(rng, s.k*s.n)
		a32 := make([]float32, len(a64))
		b32 := make([]float32, len(b64))
		for i, v := range a64 {
			a32[i] = float32(v)
		}
		for i, v := range b64 {
			b32[i] = float32(v)
		}
		got64 := make([]float64, s.m*s.n)
		got32 := make([]float32, s.m*s.n)
		Gemm(got64, a64, b64, s.m, s.k, s.n, nil)
		Gemm(got32, a32, b32, s.m, s.k, s.n, nil)
		// ~k rounding steps of f32 epsilon on unit-scale operands.
		tol := 1e-5 * float64(s.k)
		for i := range got64 {
			if d := math.Abs(got64[i] - float64(got32[i])); d > tol {
				t.Fatalf("Gemm %dx%dx%d elem %d: f32 %g vs f64 %g (diff %g > %g)",
					s.m, s.k, s.n, i, got32[i], got64[i], d, tol)
				break
			}
		}
	}
}

// TestGemmParallelMatchesSerialF32 pins the per-dtype determinism contract
// for float32 (DESIGN.md §14): the f32 kernels must produce the same bits at
// any worker count, including a reduction spanning several k-blocks
// (k=517 > 2·gemmKBlock). Referenced from the gemm.go package docs. The
// grain is lowered so that this shape splits, and each parallel leg must
// report that its three products did.
func TestGemmParallelMatchesSerialF32(t *testing.T) { eachBody(t, testGemmParallelMatchesSerialF32) }

func testGemmParallelMatchesSerialF32(t *testing.T) {
	splitEverything(t)
	rng := rand.New(rand.NewSource(44))
	const m, k, n = 37, 517, 13
	a := randSliceF32(rng, m*k)
	b := randSliceF32(rng, k*n)
	g := randSliceF32(rng, m*n)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	fwd0 := make([]float32, m*n)
	bt0 := make([]float32, m*k)
	at0 := make([]float32, k*n)
	Gemm(fwd0, a, b, m, k, n, nil)
	GemmBT(bt0, g, b, m, n, k)
	GemmAT(at0, a, g, m, k, n)

	for _, w := range []int{2, 3, 8} {
		parallel.SetWorkers(w)
		fwd := make([]float32, m*n)
		bt := make([]float32, m*k)
		at := make([]float32, k*n)
		split := splitCalls(func() {
			Gemm(fwd, a, b, m, k, n, nil)
			GemmBT(bt, g, b, m, n, k)
			GemmAT(at, a, g, m, k, n)
		})
		if split != 3 {
			t.Fatalf("workers=%d: %d of 3 products split: the parallel leg did not run", w, split)
		}
		if d := maxDiffF32(fwd, fwd0); d != 0 {
			t.Errorf("workers=%d: Gemm[float32] differs from serial by %g (must be bit-identical)", w, d)
		}
		if d := maxDiffF32(bt, bt0); d != 0 {
			t.Errorf("workers=%d: GemmBT[float32] differs from serial by %g (must be bit-identical)", w, d)
		}
		if d := maxDiffF32(at, at0); d != 0 {
			t.Errorf("workers=%d: GemmAT[float32] differs from serial by %g (must be bit-identical)", w, d)
		}
	}
}

// TestDTypeParse pins the DType surface the option/flag layers depend on:
// spellings, sizes and the rejection of unknown names.
func TestDTypeParse(t *testing.T) {
	cases := []struct {
		in   string
		want DType
		ok   bool
	}{
		{"", F64, true},
		{"f64", F64, true},
		{"float64", F64, true},
		{"f32", F32, true},
		{"float32", F32, true},
		{"f16", 0, false},
		{"F32", 0, false},
	}
	for _, c := range cases {
		got, err := ParseDType(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseDType(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseDType(%q) accepted; want error", c.in)
		}
	}
	if F64.Size() != 8 || F32.Size() != 4 {
		t.Errorf("Size: F64=%d F32=%d; want 8, 4", F64.Size(), F32.Size())
	}
	if F64.String() != "f64" || F32.String() != "f32" {
		t.Errorf("String: F64=%q F32=%q", F64.String(), F32.String())
	}
	if DTypeFor[float64]() != F64 || DTypeFor[float32]() != F32 {
		t.Error("DTypeFor maps the type parameters to the wrong tags")
	}
	if DType(7).Valid() {
		t.Error("DType(7).Valid() = true; want false")
	}
}
