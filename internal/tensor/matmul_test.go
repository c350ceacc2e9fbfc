package tensor

import (
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/parallel"
)

// naiveMatMul is the reference serial product.
func naiveMatMul(x, w *Tensor, bias []float64) *Tensor {
	b, k, n := x.Shape[0], x.Shape[1], w.Shape[1]
	out := New(b, n)
	for i := 0; i < b; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			if bias != nil {
				s = bias[j]
			}
			for kk := 0; kk < k; kk++ {
				s += x.Data[i*k+kk] * w.Data[kk*n+j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func TestMatMulMatchesNaive(t *testing.T) {
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {64, 33, 17}, {257, 8, 8}} {
		b, k, n := dims[0], dims[1], dims[2]
		x, w := randTensor(rng, b, k), randTensor(rng, k, n)
		bias := make([]float64, n)
		for j := range bias {
			bias[j] = rng.NormFloat64()
		}
		got := New(b, n)
		if err := MatMulInto(got, x, w, nil); err != nil {
			t.Fatal(err)
		}
		want := naiveMatMul(x, w, nil)
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
				t.Fatalf("[%dx%dx%d] elem %d: got %v want %v", b, k, n, i, got.Data[i], want.Data[i])
			}
		}
		withBias := New(b, n)
		if err := MatMulInto(withBias, x, w, bias); err != nil {
			t.Fatal(err)
		}
		wantBias := naiveMatMul(x, w, bias)
		for i := range wantBias.Data {
			if math.Abs(withBias.Data[i]-wantBias.Data[i]) > 1e-12 {
				t.Fatalf("[%dx%dx%d] bias elem %d: got %v want %v", b, k, n, i, withBias.Data[i], wantBias.Data[i])
			}
		}
	}
}

func TestMatMulTMatchesNaive(t *testing.T) {
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(2))
	b, k, n := 31, 13, 9
	g, w := randTensor(rng, b, n), randTensor(rng, k, n)
	dst := New(b, k)
	if err := MatMulTInto(dst, g, w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b; i++ {
		for kk := 0; kk < k; kk++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += g.Data[i*n+j] * w.Data[kk*n+j]
			}
			if math.Abs(dst.Data[i*k+kk]-s) > 1e-12 {
				t.Fatalf("elem (%d,%d): got %v want %v", i, kk, dst.Data[i*k+kk], s)
			}
		}
	}
}

// TestMatMulWorkerCountInvariance asserts the bit-identity contract: every
// output row is produced by exactly one shard with serial arithmetic, so
// any worker count yields the same bits.
func TestMatMulWorkerCountInvariance(t *testing.T) {
	splitEverything(t)
	rng := rand.New(rand.NewSource(3))
	x, w := randTensor(rng, 53, 21), randTensor(rng, 21, 11)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	serial := New(53, 11)
	if err := MatMulInto(serial, x, w, nil); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		parallel.SetWorkers(workers)
		par := New(53, 11)
		var err error
		if split := splitCalls(func() { err = MatMulInto(par, x, w, nil) }); split != 1 {
			t.Fatalf("workers=%d: the product ran as one shard: the parallel leg did not run", workers)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Data {
			if par.Data[i] != serial.Data[i] {
				t.Fatalf("workers=%d: elem %d differs: %v vs %v", workers, i, par.Data[i], serial.Data[i])
			}
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	if err := MatMulInto(New(2, 5), New(2, 3), New(4, 5), nil); err == nil {
		t.Fatal("inner-dimension mismatch must error")
	}
	if err := MatMulInto(New(2, 5), New(2, 3), New(3, 5), make([]float64, 4)); err == nil {
		t.Fatal("bad bias length must error")
	}
	if err := MatMulTInto(New(2, 3), New(2, 5), New(3, 4)); err == nil {
		t.Fatal("matmulT shape mismatch must error")
	}
	if err := MatMulInto(New(2, 2), New(2), New(2, 2), nil); err == nil {
		t.Fatal("rank-1 operand must error")
	}
}
