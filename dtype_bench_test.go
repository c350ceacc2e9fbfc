// Dtype benchmarks: the float32 instantiations of the GEMM and Conv2D hot
// paths against their float64 twins, identical shapes and worker counts.
// On an amd64 host with AVX2 both widths run the same tile kernels at the
// same vector width (internal/tensor/gemm_amd64.s), so f32
// has twice the lanes on the same instructions and must clear at
// least 1.4x the f64 throughput at conv batch 32 — the pinned acceptance
// floor; measured ~1.7x for Conv2D fwd+bwd and ~2.0x for the raw GEMM on
// the committed bench box, single core. The README's Performance table
// quotes these series; CI runs them with -benchtime 1x as a smoke test.
// See DESIGN.md §14.
package swtnas

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"swtnas/internal/nn"
	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// BenchmarkMatmulDtype measures the raw GEMM primitive per dtype:
// [256, 512] x [512, 256] at the full worker pool.
func BenchmarkMatmulDtype(b *testing.B) {
	prev := parallel.SetWorkers(runtime.NumCPU())
	defer parallel.SetWorkers(prev)
	rng := rand.New(rand.NewSource(24))
	x64, w64 := tensor.New(256, 512), tensor.New(512, 256)
	x64.RandNormal(rng, 1)
	w64.RandNormal(rng, 1)
	dst64 := tensor.New(256, 256)
	x32, w32 := tensor.Convert[float32](x64), tensor.Convert[float32](w64)
	dst32 := tensor.NewOf[float32](256, 256)
	b.Run("dtype=f64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := tensor.MatMulInto(dst64, x64, w64, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dtype=f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := tensor.MatMulInto(dst32, x32, w32, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConv2DDtype trains the CIFAR-sized convolution per dtype —
// forward plus backward through the strided-GEMM lowering — at batch 1 and
// the batch the ≥1.4x f32 speedup target is stated for (32).
func BenchmarkConv2DDtype(b *testing.B) {
	prev := parallel.SetWorkers(runtime.NumCPU())
	defer parallel.SetWorkers(prev)
	for _, batch := range []int{1, 32} {
		rng := rand.New(rand.NewSource(21))
		c64 := nn.NewConv2D("cv", 3, 3, 8, 16, nn.Same, 0, rng)
		if _, err := c64.OutShape([][]int{{16, 16, 8}}); err != nil {
			b.Fatal(err)
		}
		net := nn.NewNetwork([]int{16, 16, 8})
		net.MustAdd(c64, nn.GraphInput(0))
		net32, err := nn.ConvertNetwork[float32](net)
		if err != nil {
			b.Fatal(err)
		}
		c32 := net32.Layers()[0].(*nn.Conv2DOf[float32])
		if _, err := c32.OutShape([][]int{{16, 16, 8}}); err != nil {
			b.Fatal(err)
		}
		x64 := tensor.New(batch, 16, 16, 8)
		x64.RandNormal(rng, 1)
		x32 := tensor.Convert[float32](x64)
		b.Run(fmt.Sprintf("dtype=f64/batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := c64.Forward([]*tensor.Tensor{x64}, true)
				c64.Backward(out)
			}
		})
		b.Run(fmt.Sprintf("dtype=f32/batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := c32.Forward([]*tensor.TensorOf[float32]{x32}, true)
				c32.Backward(out)
			}
		})
	}
}

// BenchmarkGemmF32Shapes runs the three f32 products single-threaded at the
// shapes a cifar10/mnist search actually issues — 4, 8 or 16 filters, so
// n ≤ 16 against tens of thousands of patch rows — plus one fat control.
// GFLOP/s is nominal 2·m·k·n. The skinny rows are where the per-call
// overhead of a kernel shows; the fat row is where its lanes do.
func BenchmarkGemmF32Shapes(b *testing.B) {
	benchGemmShapes[float32](b, []gemmShape{
		{57600, 27, 4}, {57600, 27, 16}, {14400, 72, 8}, {14400, 144, 16}, {64, 256, 128},
	})
}

// BenchmarkGemmF64Shapes is the same measurement for the f64 products at
// the shapes an nt3 or uno search issues at batch 32: nt3's two dense
// layers, its two conv layers as plain products of their nominal size (8000
// output positions, n = 8 or 16 filters), and uno's tower and trunk layers.
func BenchmarkGemmF64Shapes(b *testing.B) {
	benchGemmShapes[float64](b, []gemmShape{
		{32, 4000, 128}, {32, 1000, 64}, {8000, 5, 8}, {8000, 7, 16}, {32, 96, 128}, {32, 448, 128},
	})
}

// gemmShape is one product size: x [m, k], w [k, n].
type gemmShape struct{ m, k, n int }

func benchGemmShapes[T tensor.Float](b *testing.B, shapes []gemmShape) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(27))
		randn := func(n int) []T {
			v := make([]T, n)
			for i := range v {
				v[i] = T(rng.NormFloat64())
			}
			return v
		}
		x, w, g := randn(s.m*s.k), randn(s.k*s.n), randn(s.m*s.n)
		out, dx, dw := make([]T, s.m*s.n), make([]T, s.m*s.k), make([]T, s.k*s.n)
		ops := []struct {
			name string
			run  func()
		}{
			{"Gemm", func() { tensor.Gemm(out, x, w, s.m, s.k, s.n, nil) }},
			{"GemmBT", func() { tensor.GemmBT(dx, g, w, s.m, s.n, s.k) }},
			{"GemmAT", func() { tensor.GemmAT(dw, x, g, s.m, s.k, s.n) }},
		}
		for _, op := range ops {
			b.Run(fmt.Sprintf("op=%s/%dx%dx%d", op.name, s.m, s.k, s.n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op.run()
				}
				flop := 2 * float64(s.m) * float64(s.k) * float64(s.n)
				b.ReportMetric(flop*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
