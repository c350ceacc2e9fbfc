package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/parallel"
)

// sameBitsF64 is sameBitsF32 at the other width: the first index at which
// got and want differ in bits, or -1, any NaN matching any NaN.
func sameBitsF64(got, want []float64) int {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

// TestF64KernelsMatchGoTwins is TestF32KernelsMatchGoTwins for the f64
// products: what a shard calls — a row range that starts past row 0 and
// ends short of the last row, so a kernel that strays outside its rows is
// caught — against the Go loops, across column counts that hit the
// two-vector chunk, the one-vector chunk and the scalar column, with a
// reduction long enough to cross a tile. Seven rows is one full 4-row tile
// and one of three aliased rows.
func TestF64KernelsMatchGoTwins(t *testing.T) { eachBody(t, testF64KernelsMatchGoTwins) }

func testF64KernelsMatchGoTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const rows, lo, hi = 11, 2, 9
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 31, 64, 100, 241} {
		for _, k := range []int{0, 1, 6, gemmKBlock + 3} {
			a := randSlice(rng, rows*k)
			b := randSlice(rng, k*n)
			g := randSlice(rng, rows*n)
			bias := randSlice(rng, n)
			seed := randSlice(rng, rows*max(k, n))

			got := append([]float64(nil), seed[:rows*n]...)
			want := append([]float64(nil), got...)
			gemmRowsF64(got, a, b, lo, hi, k, n, bias)
			gemmRowsGoF64(want, a, b, lo, hi, k, n, bias)
			if i := sameBitsF64(got, want); i >= 0 {
				t.Errorf("gemmRowsF64 k=%d n=%d: elem %d = %g, Go loop %g", k, n, i, got[i], want[i])
			}

			got = append([]float64(nil), seed[:rows*k]...)
			want = append([]float64(nil), got...)
			gemmBTRowsF64(got, g, b, lo, hi, n, k)
			gemmBTRowsGoF64(want, g, b, lo, hi, n, k)
			if i := sameBitsF64(got, want); i >= 0 {
				t.Errorf("gemmBTRowsF64 n=%d k=%d: elem %d = %g, Go loop %g", n, k, i, got[i], want[i])
			}

			// GemmAT with the roles of the axes swapped, so the long axis
			// is the reduction: dst is [rows, n], a is [k, rows].
			got = append([]float64(nil), seed[:rows*n]...)
			want = append([]float64(nil), got...)
			gemmATRowsF64(got, a, b, lo, hi, k, rows, n)
			gemmATRowsGoF64(want, a, b, lo, hi, k, rows, n)
			if i := sameBitsF64(got, want); i >= 0 {
				t.Errorf("gemmATRowsF64 m=%d n=%d: elem %d = %g, Go loop %g", k, n, i, got[i], want[i])
			}
		}
	}
}

// specialSlice is randSlice with every IEEE corner among the values: signed
// zeros, signed infinities, NaN and denormals. No path skips a zero
// operand, so 0·Inf must come out NaN exactly where the Go loops make it
// one.
func specialSlice(rng *rand.Rand, n int) []float64 {
	specials := []float64{
		0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310,
		math.MaxFloat64, -math.MaxFloat64,
	}
	s := randSlice(rng, n)
	for i := range s {
		if rng.Intn(16) == 0 {
			s[i] = specials[rng.Intn(len(specials))]
		}
	}
	return s
}

// TestGemmF64ShapeSweep is TestGemmF32ShapeSweep for the f64 products, over
// the same grid of shapes: Gemm (with and without bias), GemmBT and GemmAT
// (accumulating into a non-zero dst) equal the Go loops bit for bit at 1, 2
// and 3 kernel workers, IEEE specials included. The Go loops run serially
// over the whole matrix, so the sweep also pins that a row computes the
// same bits in a 2×4 block, a 4-row tile or on its own.
func TestGemmF64ShapeSweep(t *testing.T) { eachBody(t, testGemmF64ShapeSweep) }

func testGemmF64ShapeSweep(t *testing.T) {
	ms := []int{1, 2, 3, 5, 64}
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 27, 239, 240, 241, 481}
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33}
	splitEverything(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(62))
	const mMax, kMax, nMax = 64, 481, 33
	a := specialSlice(rng, mMax*kMax)
	b := specialSlice(rng, kMax*nMax)
	g := specialSlice(rng, max(mMax, kMax)*nMax)
	bias := specialSlice(rng, nMax)
	seed := specialSlice(rng, max(mMax, kMax)*max(kMax, nMax))
	got := make([]float64, len(seed))
	want := make([]float64, len(seed))
	check := func(op string, m, k, n, size int) {
		t.Helper()
		if i := sameBitsF64(got[:size], want[:size]); i >= 0 {
			t.Fatalf("%s %dx%dx%d workers=%d: elem %d = %g (%#016x), Go loop %g (%#016x)",
				op, m, k, n, parallel.Workers(), i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	// The 2- and 3-worker legs are parallel legs only if the call split:
	// every product over two or more output rows must, at the lowered grain.
	split := func(op string, rows int, product func()) {
		t.Helper()
		if n := splitCalls(product); (n == 1) != (rows > 1 && parallel.Workers() > 1) {
			t.Fatalf("%s over %d rows at workers=%d split %d times", op, rows, parallel.Workers(), n)
		}
	}
	for _, m := range ms {
		for _, k := range ks {
			for _, n := range ns {
				for _, bs := range [][]float64{nil, bias[:n]} {
					gemmRowsGoF64(want, a, b, 0, m, k, n, bs)
					for w := 1; w <= 3; w++ {
						parallel.SetWorkers(w)
						split("Gemm", m, func() { Gemm(got[:m*n], a[:m*k], b[:k*n], m, k, n, bs) })
						check(fmt.Sprintf("Gemm(bias=%v)", bs != nil), m, k, n, m*n)
					}
				}
				gemmBTRowsGoF64(want, g, b, 0, m, n, k)
				for w := 1; w <= 3; w++ {
					parallel.SetWorkers(w)
					split("GemmBT", m, func() { GemmBT(got[:m*k], g[:m*n], b[:k*n], m, n, k) })
					check("GemmBT", m, k, n, m*k)
				}
				// dst [m, n] += aᵀ·g for a [k, m], g [k, n].
				copy(want[:m*n], seed)
				gemmATRowsGoF64(want, a, g, 0, m, k, m, n)
				for w := 1; w <= 3; w++ {
					parallel.SetWorkers(w)
					copy(got[:m*n], seed)
					split("GemmAT", m, func() { GemmAT(got[:m*n], a[:k*m], g[:k*n], k, m, n) })
					check("GemmAT", k, m, n, m*n)
				}
			}
		}
	}
}
