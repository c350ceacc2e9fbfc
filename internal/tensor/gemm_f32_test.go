package tensor

import (
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/parallel"
)

// TestGemmF32AgreesWithF64 bounds the rounding gap between the f32 and f64
// instantiations on identical inputs — the per-element error of an f32
// reduction, not a correctness bug, so the bound scales with k.
func TestGemmF32AgreesWithF64(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, s := range gemmShapes {
		a64 := randFloats[float64](rng, s.m*s.k)
		b64 := randFloats[float64](rng, s.k*s.n)
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
	a := randFloats[float32](rng, m*k)
	b := randFloats[float32](rng, k*n)
	g := randFloats[float32](rng, m*n)
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
		if i := sameBits(fwd, fwd0); i >= 0 {
			t.Errorf("workers=%d: Gemm[float32] elem %d = %g, serial %g (must be bit-identical)", w, i, fwd[i], fwd0[i])
		}
		if i := sameBits(bt, bt0); i >= 0 {
			t.Errorf("workers=%d: GemmBT[float32] elem %d = %g, serial %g (must be bit-identical)", w, i, bt[i], bt0[i])
		}
		if i := sameBits(at, at0); i >= 0 {
			t.Errorf("workers=%d: GemmAT[float32] elem %d = %g, serial %g (must be bit-identical)", w, i, at[i], at0[i])
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
