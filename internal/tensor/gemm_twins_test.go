package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"swtnas/internal/parallel"
)

// TestF64KernelsMatchGoTwins pins the bodies behind the products to the Go
// definitions bit for bit at the level a shard calls them: a row range that
// starts past row 0 and ends short of the last row, so a kernel that
// strays outside its rows is caught, across column counts that hit every
// chunk of the column ladder and every scalar-tail size, with a reduction
// long enough to cross a tile. Seven rows is one full 4-row tile and one of
// three aliased rows. On the Go body, and under the purego tag, the kernels
// *are* the Go definitions and this passes trivially; on the AVX2 body it
// is the proof that the packed multiplies and adds reproduce the scalar
// rounding sequence (no FMA, one rounding per op). TestF32KernelsMatchGoTwins
// is the same test at f32.
func TestF64KernelsMatchGoTwins(t *testing.T) { eachBody(t, testKernelsMatchGoTwins[float64]) }
func TestF32KernelsMatchGoTwins(t *testing.T) { eachBody(t, testKernelsMatchGoTwins[float32]) }

func testKernelsMatchGoTwins[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const rows, lo, hi = 11, 2, 9
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 31, 64, 100, 241} {
		for _, k := range []int{0, 1, 6, gemmKBlock + 3} {
			a, b, g := randFloats[T](rng, rows*k), randFloats[T](rng, k*n), randFloats[T](rng, rows*n)
			bias, seed := randFloats[T](rng, n), randFloats[T](rng, rows*max(k, n))
			for _, c := range []struct {
				op   string
				size int
				run  func(dst []T)
			}{
				{"Gemm", rows * n, func(d []T) { gemmRows(d, a, b, lo, hi, k, n, bias) }},
				{"GemmBT", rows * k, func(d []T) { GemmBTSerial(d[lo*k:], g[lo*n:], b, hi-lo, n, k) }},
				// GemmAT with the roles of the axes swapped, so the long
				// axis is the reduction: dst is [rows, n], a is [k, rows].
				{"GemmAT", rows * n, func(d []T) { gemmATRows(d, a, b, lo, hi, k, rows, n) }},
			} {
				got := append([]T(nil), seed[:c.size]...)
				want := append([]T(nil), got...)
				c.run(got)
				onGo(func() { c.run(want) })
				if i := sameBits(got, want); i >= 0 {
					t.Errorf("%s k=%d n=%d: elem %d = %v, Go definition %v", c.op, k, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGemmF64ShapeSweep is the oracle test of the products: over a grid of
// shapes that puts every tail of every kernel in play — odd row counts, n
// mod 4 and n mod 8 column tails, k = 1, reductions one short of, equal to
// and one past a tile and across two — Gemm (with and without bias),
// GemmBT and GemmAT (accumulating into a non-zero dst) equal the Go
// definitions, run serially over the whole matrix, bit for bit at 1, 2 and
// 3 kernel workers, IEEE specials included. GemmAT takes its reduction
// length from the k list and its row count from the m list, so each
// product's reduction axis crosses the tile boundary.
// TestGemmF32ShapeSweep is the same sweep at f32.
func TestGemmF64ShapeSweep(t *testing.T) { eachBody(t, testGemmShapeSweep[float64]) }
func TestGemmF32ShapeSweep(t *testing.T) { eachBody(t, testGemmShapeSweep[float32]) }

func testGemmShapeSweep[T Float](t *testing.T) {
	ms := []int{1, 2, 3, 5, 64}
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 27, 239, 240, 241, 481}
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33}
	splitEverything(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(52))
	const mMax, kMax, nMax = 64, 481, 33
	a := specialFloats[T](rng, mMax*kMax)
	b := specialFloats[T](rng, kMax*nMax)
	g := specialFloats[T](rng, max(mMax, kMax)*nMax)
	bias := specialFloats[T](rng, nMax)
	seed := specialFloats[T](rng, max(mMax, kMax)*max(kMax, nMax))
	got := make([]T, len(seed))
	want := make([]T, len(seed))
	check := func(op string, m, k, n, size int) {
		t.Helper()
		if i := sameBits(got[:size], want[:size]); i >= 0 {
			t.Fatalf("%s %dx%dx%d workers=%d: elem %d = %v (%#x), Go definition %v (%#x)",
				op, m, k, n, parallel.Workers(), i, got[i], bitsOf(got[i]), want[i], bitsOf(want[i]))
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
				for _, bs := range [][]T{nil, bias[:n]} {
					onGo(func() { gemmRows(want, a, b, 0, m, k, n, bs) })
					for w := 1; w <= 3; w++ {
						parallel.SetWorkers(w)
						split("Gemm", m, func() { Gemm(got[:m*n], a[:m*k], b[:k*n], m, k, n, bs) })
						check(fmt.Sprintf("Gemm(bias=%v)", bs != nil), m, k, n, m*n)
					}
				}
				onGo(func() { GemmBTSerial(want, g, b, m, n, k) })
				for w := 1; w <= 3; w++ {
					parallel.SetWorkers(w)
					split("GemmBT", m, func() { GemmBT(got[:m*k], g[:m*n], b[:k*n], m, n, k) })
					check("GemmBT", m, k, n, m*k)
				}
				// dst [m, n] += aᵀ·g for a [k, m], g [k, n].
				copy(want[:m*n], seed)
				onGo(func() { gemmATRows(want, a, g, 0, m, k, m, n) })
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
