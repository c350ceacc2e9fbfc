package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestGemmStridedMatchesGo pins GemmStrided, on every body the host runs,
// to the Go definition, gemmTileGo, bit for bit (any NaN matching any NaN), with every
// IEEE corner among the operands, at the strides a convolution reads its
// receptive fields with: the output positions of a batch of maps over
// kernel rows of KW·InC taps, a kernel's taps over the output rows of a
// sample and of a batch, rows and groups out of order and overlapping, a
// one read at stride 0, and one group longer than the k-block. Each case
// runs from +0, from a bias row and accumulating into dst, and most leave
// the last 4-row tile short.
func TestGemmStridedMatchesGo(t *testing.T) { eachBody(t, testGemmStridedMatchesGo) }

func testGemmStridedMatchesGo(t *testing.T) {
	t.Run("f32", stridedCases[float32])
	t.Run("f64", stridedCases[float64])
}

func stridedCases[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a, b := specialFloats[T](rng, 4096), specialFloats[T](rng, 4096)
	bias, seed := specialFloats[T](rng, 64), specialFloats[T](rng, 2048)
	// positions are the first taps of the output positions of a batch of
	// maps, rowStarts those of its output rows, taps a kernel's taps.
	positions := func(samples, outH, outW, ph, pw, inC int) []int {
		var at []int
		for s := 0; s < samples; s++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					at = append(at, ((s*ph+oy)*pw+ox)*inC)
				}
			}
		}
		return at
	}
	rowStarts := func(samples, outH, ph, pw, inC int) []int { return positions(samples, outH, 1, ph, pw, inC) }
	taps := func(kh, kw, rowLen int) []int {
		var at []int
		for ky := 0; ky < kh; ky++ {
			for j := 0; j < kw; j++ {
				at = append(at, ky*rowLen+j)
			}
		}
		return at
	}
	for _, c := range []struct {
		name          string
		rowAt, groups []int
		tw, ats, n    int
	}{
		{"forward-cifar10-first", positions(2, 2, 8, 10, 10, 3), []int{0, 30, 60}, 9, 1, 8},
		{"forward-2x2-maps", positions(5, 2, 2, 4, 4, 16), []int{0, 64, 128}, 48, 1, 4},
		{"forward-1x1-maps", positions(13, 1, 1, 3, 3, 16), []int{0, 48, 96}, 48, 1, 16},
		{"wgrad-sample", taps(1, 9, 0), rowStarts(1, 8, 10, 10, 3), 8, 3, 16},
		{"wgrad-2x2-maps", taps(3, 48, 64), rowStarts(5, 2, 4, 4, 16), 2, 16, 4},
		{"unordered-overlapping", []int{5, 0, 9, 2, 2}, []int{5, 0, 12, 3}, 3, 7, 5},
		{"column-sums", []int{0}, []int{0}, 33, 0, 17},
		{"one-group-past-k-block", taps(7, 1, 4), []int{0}, gemmKBlock + 50, 1, 12},
	} {
		for _, init := range []string{"nil", "bias", "dst"} {
			t.Run(fmt.Sprintf("%s/init=%s", c.name, init), func(t *testing.T) {
				size := len(c.rowAt) * c.n
				got := append(append([]T(nil), seed[:size]...), 12345)
				want := append([]T(nil), seed[:size]...)
				var gi, wi []T
				stride := 0
				switch init {
				case "bias":
					gi, wi = bias[:c.n], bias[:c.n]
				case "dst":
					gi, wi, stride = got, want, c.n
				}
				GemmStrided(got, gi, stride, a, c.rowAt, c.groups, c.tw, c.ats, b, c.n)
				gemmTileGo(want, wi, stride, a, 0, c.rowAt, c.ats, c.tw, c.groups, b, len(c.rowAt), len(c.groups)*c.tw, c.n)
				if i := sameBits(got[:size], want); i >= 0 {
					t.Fatalf("elem %d = %v, Go definition %v", i, got[i], want[i])
				}
				if got[size] != 12345 {
					t.Fatal("GemmStrided wrote past its last row")
				}
			})
		}
	}
}

// TestGemmStridedRejectsNegativeStrides: a negative ats or initStride
// passes the bounds check of the farthest element read as a negative
// offset would, so each is refused itself, before the unchecked AVX2
// kernel reads outside the operand (the first case would sum a[0..7] of a
// one-element a, the second read init before and after its one element).
func TestGemmStridedRejectsNegativeStrides(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		for _, c := range []struct {
			name       string
			init       []float64
			initStride int
			rowAt      []int
			tw, ats, n int
		}{
			{"ats", nil, 0, []int{7}, 8, -1, 1},
			{"initStride", []float64{1}, -1, []int{0, 0, 0}, 1, 0, 3},
		} {
			t.Run(c.name, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Errorf("%s < 0 accepted", c.name)
					}
				}()
				dst, a, b := make([]float64, len(c.rowAt)*c.n), []float64{1}, make([]float64, c.tw*c.n)
				GemmStrided(dst, c.init, c.initStride, a, c.rowAt, []int{0}, c.tw, c.ats, b, c.n)
			})
		}
	})
}
