package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/parallel"
)

// sameBitsF32 reports the first index at which got and want are not the
// same float32 bits, or -1. Any NaN matches any NaN: which payload survives
// NaN+NaN depends on the operand order of the add instruction, which IEEE
// and the accumulation-order contract both leave open.
func sameBitsF32(got, want []float32) int {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

// TestF32KernelsMatchGoTwins pins the kernels behind the f32 products to
// the pure-Go loops bit for bit at the level a shard calls them: a row
// range that starts past row 0 and ends short of the last row, across
// vector lengths that hit every chunk of the column ladder at both vector
// widths and every scalar-tail size, with a reduction long enough to cross
// a tile. Under the purego tag and on non-amd64 builds the kernels *are*
// the loops and this passes trivially; on amd64 it is the proof, once per
// body the host can run, that the packed multiplies and adds reproduce the
// scalar rounding sequence (no FMA, one rounding per op) the loops define.
func TestF32KernelsMatchGoTwins(t *testing.T) { eachBody(t, testF32KernelsMatchGoTwins) }

func testF32KernelsMatchGoTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const rows, lo, hi = 11, 2, 9
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 64, 100, 241} {
		for _, k := range []int{0, 1, 6, gemmKBlock + 3} {
			a := randSliceF32(rng, rows*k)
			b := randSliceF32(rng, k*n)
			g := randSliceF32(rng, rows*n)
			bias := randSliceF32(rng, n)
			seed := randSliceF32(rng, rows*max(k, n))

			got := append([]float32(nil), seed[:rows*n]...)
			want := append([]float32(nil), got...)
			gemmRowsF32(got, a, b, lo, hi, k, n, bias)
			gemmRowsGo(want, a, b, lo, hi, k, n, bias)
			if i := sameBitsF32(got, want); i >= 0 {
				t.Errorf("gemmRowsF32 k=%d n=%d: elem %d = %g, Go loop %g", k, n, i, got[i], want[i])
			}

			got = append([]float32(nil), seed[:rows*k]...)
			want = append([]float32(nil), got...)
			gemmBTRowsF32(got, g, b, lo, hi, n, k)
			gemmBTRowsGo(want, g, b, lo, hi, n, k)
			if i := sameBitsF32(got, want); i >= 0 {
				t.Errorf("gemmBTRowsF32 n=%d k=%d: elem %d = %g, Go loop %g", n, k, i, got[i], want[i])
			}

			// GemmAT with the roles of the axes swapped, so the long axis
			// is the reduction: dst is [rows, n], a is [k, rows].
			got = append([]float32(nil), seed[:rows*n]...)
			want = append([]float32(nil), got...)
			gemmATRowsF32(got, a, b, lo, hi, k, rows, n)
			gemmATRowsGo(want, a, b, lo, hi, k, rows, n)
			if i := sameBitsF32(got, want); i >= 0 {
				t.Errorf("gemmATRowsF32 m=%d n=%d: elem %d = %g, Go loop %g", k, n, i, got[i], want[i])
			}
		}
	}
}

// specialSliceF32 is randSliceF32 with every IEEE corner among the values:
// signed zeros, signed infinities, NaN and denormals. The f32 path never
// skips a zero operand, so 0·Inf must come out NaN exactly where the Go
// loops make it one.
func specialSliceF32(rng *rand.Rand, n int) []float32 {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-41,
		math.MaxFloat32, -math.MaxFloat32,
	}
	s := randSliceF32(rng, n)
	for i := range s {
		if rng.Intn(16) == 0 {
			s[i] = specials[rng.Intn(len(specials))]
		}
	}
	return s
}

// TestGemmF32ShapeSweep is the oracle test of the f32 products: over a grid
// of shapes that puts every tail of every kernel in play — odd row counts,
// n mod 4 and n mod 8 column tails, k = 1, reductions one short of, equal
// to and one past a tile and across two — Gemm (with and without bias),
// GemmBT and GemmAT (accumulating into a non-zero dst) equal the pure-Go
// loops bit for bit at 1, 2 and 3 kernel workers, IEEE specials included.
// GemmAT takes its reduction length from the k list and its row count from
// the m list, so each product's reduction axis crosses the tile boundary.
func TestGemmF32ShapeSweep(t *testing.T) { eachBody(t, testGemmF32ShapeSweep) }

func testGemmF32ShapeSweep(t *testing.T) {
	ms := []int{1, 2, 3, 5, 64}
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 27, 239, 240, 241, 481}
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33}
	splitEverything(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(52))
	const mMax, kMax, nMax = 64, 481, 33
	a := specialSliceF32(rng, mMax*kMax)
	b := specialSliceF32(rng, kMax*nMax)
	g := specialSliceF32(rng, max(mMax, kMax)*nMax)
	bias := specialSliceF32(rng, nMax)
	seed := specialSliceF32(rng, max(mMax, kMax)*max(kMax, nMax))
	got := make([]float32, len(seed))
	want := make([]float32, len(seed))
	check := func(op string, m, k, n, size int) {
		t.Helper()
		if i := sameBitsF32(got[:size], want[:size]); i >= 0 {
			t.Fatalf("%s %dx%dx%d workers=%d: elem %d = %g (%#08x), Go loop %g (%#08x)",
				op, m, k, n, parallel.Workers(), i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
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
				for _, bs := range [][]float32{nil, bias[:n]} {
					gemmRowsGo(want, a, b, 0, m, k, n, bs)
					for w := 1; w <= 3; w++ {
						parallel.SetWorkers(w)
						split("Gemm", m, func() { Gemm(got[:m*n], a[:m*k], b[:k*n], m, k, n, bs) })
						check(fmt.Sprintf("Gemm(bias=%v)", bs != nil), m, k, n, m*n)
					}
				}
				gemmBTRowsGo(want, g, b, 0, m, n, k)
				for w := 1; w <= 3; w++ {
					parallel.SetWorkers(w)
					split("GemmBT", m, func() { GemmBT(got[:m*k], g[:m*n], b[:k*n], m, n, k) })
					check("GemmBT", m, k, n, m*k)
				}
				// dst [m, n] += aᵀ·g for a [k, m], g [k, n].
				copy(want[:m*n], seed)
				gemmATRowsGo(want, a, g, 0, m, k, m, n)
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
