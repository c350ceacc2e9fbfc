package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// poolValues returns n values of T for the max-pool tests: a quarter of
// them IEEE corners (elemCorners: ±0, ±Inf, NaNs, subnormals), a quarter
// whole numbers in [−2, 2] with zeros of both signs, so that windows hold
// ties only the tap order resolves, and the rest normal values.
func poolValues[T Float](rng *rand.Rand, n int) []T {
	corners := elemCorners[T]()
	s := make([]T, n)
	for i := range s {
		switch rng.Intn(4) {
		case 0:
			s[i] = corners[rng.Intn(len(corners))]
		case 1:
			s[i] = T(rng.Intn(5) - 2)
			if s[i] == 0 && rng.Intn(2) == 0 {
				s[i] = T(math.Copysign(0, -1))
			}
		default:
			s[i] = T(rng.NormFloat64())
		}
	}
	return s
}

// poolRowLen is the number of elements a MaxPoolRow call reads x to.
func poolRowLen(at, ch, inRow, kh, kw, stride, outW int) int {
	return at + (outW-1)*stride*ch + (kh-1)*inRow + kw*ch
}

// expectPoolTwin runs MaxPoolRow and maxPoolRowGo over x, each into a
// poisoned output and index row one element longer than the call's, and
// wants both rows bit for bit equal — the element past the call too, so a
// body that writes past its row fails.
func expectPoolTwin[T Float](t *testing.T, what string, x []T, at, ch, inRow, kh, kw, stride, outW int) {
	t.Helper()
	n := outW * ch
	got, want := make([]T, n+1), make([]T, n+1)
	garg, warg := make([]int32, n+1), make([]int32, n+1)
	for i := range got {
		got[i], want[i] = T(math.NaN()), T(math.NaN())
		garg[i], warg[i] = -1, -1
	}
	MaxPoolRow(got[:n], garg[:n], x, at, ch, inRow, kh, kw, stride)
	maxPoolRowGo(want[:n], warg[:n], x, at, 0, ch, inRow, kh, kw, stride)
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) || garg[i] != warg[i] {
			t.Fatalf("%s ch=%d window %d×%d stride %d outW %d at %d inRow %d: element %d = %v (%#x) from %d, Go loop %v (%#x) from %d",
				what, ch, kh, kw, stride, outW, at, inRow, i, got[i], bitsOf(got[i]), garg[i], want[i], bitsOf(want[i]), warg[i])
		}
	}
}

// TestMaxPoolRowMatchesGo is the twin sweep of the max-pool row body: on
// each body the host runs, at both element types, MaxPoolRow equals
// maxPoolRowGo bit for bit, values and indices, over channel counts 1–17,
// 24, 32 and 40 (every tail after the 16- and 32-byte vectors of both
// widths), windows 1–3 × 1–3, strides 1–3, one to four pixels and start
// offsets 0–2, on poolValues inputs and on rows all NaN, all −Inf and all
// zeros of mixed sign.
func TestMaxPoolRowMatchesGo(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		t.Run("f32", testMaxPoolRow[float32])
		t.Run("f64", testMaxPoolRow[float64])
	})
}

func testMaxPoolRow[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	chans := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 32, 40}
	for _, ch := range chans {
		for kh := 1; kh <= 3; kh++ {
			for kw := 1; kw <= 3; kw++ {
				for stride := 1; stride <= 3; stride++ {
					outW, at := 1+rng.Intn(4), rng.Intn(3)
					inRow := ((outW-1)*stride + kw + rng.Intn(3)) * ch
					x := poolValues[T](rng, poolRowLen(at, ch, inRow, kh, kw, stride, outW))
					expectPoolTwin(t, "poolValues", x, at, ch, inRow, kh, kw, stride, outW)
				}
			}
		}
		inRow := 5 * ch
		for _, c := range []struct {
			name string
			fill func(i int) T
		}{
			{"all NaN", func(int) T { return T(math.NaN()) }},
			{"all -Inf", func(int) T { return T(math.Inf(-1)) }},
			{"signed zeros", func(i int) T { return T(math.Copysign(0, float64(i%3-1))) }},
		} {
			x := make([]T, poolRowLen(0, ch, inRow, 3, 3, 2, 2))
			for i := range x {
				x[i] = c.fill(i)
			}
			expectPoolTwin(t, c.name, x, 0, ch, inRow, 3, 3, 2, 2)
		}
	}
}

// FuzzMaxPoolRow is the differential form of the sweep: shape picks the
// channel count (1–40), the window (1–5 × 1–5), the stride (1–5), the
// pixels (1–4), the row padding and the start offset, data the bit patterns
// of the taps, at both element types, and MaxPoolRow on every body the host
// runs must equal maxPoolRowGo bit for bit.
func FuzzMaxPoolRow(f *testing.F) {
	rng := rand.New(rand.NewSource(67))
	for _, shape := range []uint32{3, 7, 15, 8 + 40*1 + 200*1 + 1000*1, 16 + 40*2 + 200*2 + 1000*1 + 5000*3, 31 + 40*4 + 200*4 + 1000*4 + 5000*1 + 20000*2 + 60000*5} {
		seed := make([]byte, 0, 8*64)
		for _, v := range poolValues[float64](rng, 64) {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
		f.Add(shape, seed)
	}
	f.Fuzz(func(t *testing.T, shape uint32, data []byte) {
		s := int(shape)
		ch, kh, kw, stride := 1+s%40, 1+s/40%5, 1+s/200%5, 1+s/1000%5
		outW, pad, at := 1+s/5000%4, s/20000%3, s/60000%7
		inRow := ((outW-1)*stride + kw + pad) * ch
		fuzzPool[float32](t, data, at, ch, inRow, kh, kw, stride, outW)
		fuzzPool[float64](t, data, at, ch, inRow, kh, kw, stride, outW)
	})
}

func fuzzPool[T Float](t *testing.T, data []byte, at, ch, inRow, kh, kw, stride, outW int) {
	size := DTypeFor[T]().Size()
	x := make([]T, poolRowLen(at, ch, inRow, kh, kw, stride, outW))
	if words := len(data) / size; words > 0 {
		for i := range x {
			w := data[i%words*size:]
			if size == 4 {
				x[i] = fromBits[T](uint64(binary.LittleEndian.Uint32(w)))
			} else {
				x[i] = fromBits[T](binary.LittleEndian.Uint64(w))
			}
		}
	}
	for _, vb := range []int{8, 32} {
		if vb > hostVectorBytes {
			continue
		}
		setBody(t, vb)
		expectPoolTwin(t, fmt.Sprintf("%s/vector_bytes=%d", DTypeFor[T](), vb), x, at, ch, inRow, kh, kw, stride, outW)
	}
}

// BenchmarkMaxPoolRow times MaxPoolRow per output element on the rows a
// cifar10 search pools most: a 2×2 window, stride 2, over 32-pixel map
// rows of 4, 8 and 16 channels, at both element types and on each body the
// host runs.
func BenchmarkMaxPoolRow(b *testing.B) {
	benchPool[float32](b)
	benchPool[float64](b)
}

func benchPool[T Float](b *testing.B) {
	rng := rand.New(rand.NewSource(68))
	for _, ch := range []int{4, 8, 16} {
		const inW, k, stride = 32, 2, 2
		outW, inRow := (inW-k)/stride+1, inW*ch
		x := poolValues[T](rng, k*inRow)
		dst, arg := make([]T, outW*ch), make([]int32, outW*ch)
		for _, vb := range []int{8, 32} {
			b.Run(fmt.Sprintf("ch=%d/%s/vector_bytes=%d", ch, DTypeFor[T](), vb), func(b *testing.B) {
				if vb > hostVectorBytes {
					b.Skipf("the %d-byte body cannot run here", vb)
				}
				setBody(b, vb)
				for i := 0; i < b.N; i++ {
					MaxPoolRow(dst, arg, x, 0, ch, inRow, k, k, stride)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/elem")
			})
		}
	}
}
