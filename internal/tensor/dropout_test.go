package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// streamSeeds are the seeds the stream tests run: the zero seed (which
// math/rand maps to 89482311), that seed itself, the negatives, the
// int32max boundary math/rand reduces seeds modulo, and a seed past 2³².
var streamSeeds = []int64{0, 1, -1, 89482311, 1<<31 - 1, 1 << 40, math.MinInt64}

// TestStreamMatchesSource draws over a million values from a Stream and
// from rand.NewSource with the same seed, through rand.Rand's methods
// interleaved — Float64, NormFloat64, Intn (both of its ranges), Perm,
// Shuffle, Uint64 and Int63 — and wants every value equal. A million draws
// cross the Stream's buffer shift hundreds of times, at every offset the
// mix lands on.
func TestStreamMatchesSource(t *testing.T) {
	for _, seed := range streamSeeds {
		s := NewStream(seed)
		got, want := s.Rand(), rand.New(rand.NewSource(seed))
		pick := rand.New(rand.NewSource(seed ^ 0x5eed))
		perm := make([]int, 64)
		draws := 0
		for step := 0; draws < 1_000_000; step++ {
			var g, w any
			switch op := pick.Intn(8); op {
			case 0:
				g, w = got.Float64(), want.Float64()
				draws++
			case 1:
				g, w = got.NormFloat64(), want.NormFloat64()
				draws += 2
			case 2:
				n := 1 + pick.Intn(1000)
				g, w = got.Intn(n), want.Intn(n)
				draws++
			case 3:
				n := 1<<40 + pick.Intn(1000)
				g, w = got.Intn(n), want.Intn(n)
				draws++
			case 4:
				n := pick.Intn(100)
				g, w = fmt.Sprint(got.Perm(n)), fmt.Sprint(want.Perm(n))
				draws += n
			case 5:
				n := pick.Intn(len(perm))
				for i := range perm {
					perm[i] = i
				}
				got.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				g = fmt.Sprint(perm[:n])
				for i := range perm {
					perm[i] = i
				}
				want.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				w = fmt.Sprint(perm[:n])
				draws += n
			case 6:
				g, w = got.Uint64(), want.Uint64()
				draws++
			default:
				n := pick.Intn(4 * streamAhead)
				for i := 0; i < n; i++ {
					if a, b := got.Int63(), want.Int63(); a != b {
						t.Fatalf("seed %d: step %d: Int63 %d of %d = %d, source %d", seed, step, i, n, a, b)
					}
				}
				g, w = nil, nil
				draws += n
			}
			if g != w {
				t.Fatalf("seed %d: step %d (%d draws in): stream %v, source %v", seed, step, draws, g, w)
			}
		}
		// Seed restarts the stream, as it restarts the source.
		got.Seed(seed + 7)
		want.Seed(seed + 7)
		for i := 0; i < 3*streamAhead; i++ {
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d: reseeded: draw %d = %d, source %d", seed, i, a, b)
			}
		}
	}
}

// cloneStream returns a Stream in s's state, drawing on from where s is.
func cloneStream(s *Stream) *Stream {
	c := &Stream{buf: s.buf, pos: s.pos}
	c.rng = rand.New(c)
	return c
}

// plant sets the Stream's history so that its k-th next draw (k < 273) is
// v: the recurrence adds the draw 607 back to the one 273 back.
func plant(s *Stream, k int, v uint64) {
	s.buf[s.pos+k-streamLong] = v - s.buf[s.pos+k-streamShort]
}

// keeps is DropoutEach's decision for the 63-bit draw v at rate.
func keeps(v uint64, rate float64) bool {
	u := float64(int64(v)) / (1 << 63)
	return int64(math.Float64bits(u)-math.Float64bits(rate)) >= 0
}

// TestDropThreshold: the threshold is kept and the value below it is not,
// which fixes it, keeps being monotone in v; and it lies below every draw
// Float64 redraws.
func TestDropThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rates := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0x1p-63, 0x1p-62, 0x1p-11, 0x1p-10,
		0.02, 0.1, 0.3, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 0.9, math.Nextafter(1, 0)}
	for len(rates) < 2000 {
		rates = append(rates, rng.Float64(), math.Float64frombits(rng.Uint64()>>2&^(1<<61)))
	}
	for _, rate := range rates {
		if rate >= 1 {
			continue
		}
		thr := dropThreshold(rate)
		if !keeps(thr, rate) || thr > 0 && keeps(thr-1, rate) || thr > redrawFrom-512 {
			t.Fatalf("rate %v (%#x): threshold %#x: keeps it %v, keeps the one below %v",
				rate, math.Float64bits(rate), thr, keeps(thr, rate), thr > 0 && keeps(thr-1, rate))
		}
	}
	if !keeps(redrawFrom-1, math.Nextafter(1, 0)) || float64(int64(redrawFrom)) != 1<<63 || float64(int64(redrawFrom-1)) == 1<<63 {
		t.Fatal("redrawFrom is not the least draw that rounds to 2⁶³")
	}
}

// dropoutRates are the rates the dropout tests run: every rate the built-in
// spaces use, and the extremes.
var dropoutRates = []float64{0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0x1p-60, math.Nextafter(1, 0)}

// expectDropout runs Dropout on a copy of s and DropoutEach on another, over
// the window [off, off+n) of copies of out, mask and x, and wants every
// element of the three equal bit for bit (any NaN matching any NaN), and
// the two streams to draw on equal.
func expectDropout[T Float](t *testing.T, what string, s *Stream, out, mask, x []T, off, n int, rate float64) {
	t.Helper()
	keep := T(1 / (1 - rate))
	sb, sg := cloneStream(s), cloneStream(s)
	ops := [][]T{out, mask, x}
	expectTwin(t, fmt.Sprintf("%s rate=%v", what, rate), ops, off, n,
		func(o [][]T) { Dropout(o[0], o[1], o[2], keep, rate, sb) },
		func(o [][]T) { DropoutEach(o[0], o[1], o[2], keep, rate, sg.Rand()) })
	for i := 0; i < streamLong+1; i++ {
		if a, b := sb.Uint64(), sg.Uint64(); a != b {
			t.Fatalf("%s rate=%v n=%d off=%d: draw %d after the call = %#x, after the loop %#x", what, rate, n, off, i, a, b)
		}
	}
}

// TestDropoutBodiesMatchGo holds Dropout to DropoutEach on each body the
// host runs, at both element types: every length 0–67 at offsets 0–3 and
// lengths past the Stream's buffer, at every rate of dropoutRates, on
// inputs with IEEE corners; with draws planted at the redraw boundary
// (2⁶³ − 513 is taken, 2⁶³ − 512 and up redrawn, the top bit ignored), on
// and around the threshold, at the first draw, mid-vector, at a vector's
// last lane and twice in a row; and from streams that have drawn an
// arbitrary amount, so a call starts at every buffer offset.
func TestDropoutBodiesMatchGo(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		t.Run("f32", testDropoutBodies[float32])
		t.Run("f64", testDropoutBodies[float64])
	})
}

func testDropoutBodies[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	s := NewStream(73)
	lengths := []int{}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 1000, streamAhead-1, streamAhead+9, 3*streamAhead+5)
	for _, n := range lengths {
		for off := 0; off <= 3; off++ {
			size := n + 4
			out, mask, x := elemValues[T](rng, size), elemValues[T](rng, size), elemValues[T](rng, size)
			rate := dropoutRates[rng.Intn(len(dropoutRates))]
			for k := rng.Intn(3 * streamAhead); k > 0; k-- {
				s.Uint64()
			}
			expectDropout(t, "random", s, out, mask, x, off, n, rate)
		}
	}
	for _, rate := range dropoutRates {
		thr := dropThreshold(rate)
		for _, planted := range [][]struct {
			k int
			v uint64
		}{
			{{0, redrawFrom}},
			{{3, redrawFrom - 1}, {4, 1<<63 | (redrawFrom - 1)}, {7, redrawFrom}, {8, 1<<64 - 1}},
			{{5, 1<<63 | redrawFrom}, {6, 1<<63 - 1}},
			{{12, thr}, {13, thr - 1}, {14, thr | 1<<63}, {15, (thr - 1) | 1<<63}, {16, thr + 1}},
			{{31, redrawFrom + 7}, {32, redrawFrom}, {33, redrawFrom + 100}, {40, redrawFrom}},
			{{270, redrawFrom}, {272, redrawFrom}},
		} {
			for _, n := range []int{1, 7, 8, 9, 33, 64, 300, 1000} {
				for k := rng.Intn(streamAhead); k > 0; k-- {
					s.Uint64()
				}
				sp := cloneStream(s)
				if len(sp.buf)-sp.pos < streamShort {
					sp.shift()
				}
				for _, p := range planted {
					plant(sp, p.k, p.v)
				}
				out, mask, x := elemValues[T](rng, n+1), elemValues[T](rng, n+1), elemValues[T](rng, n+1)
				expectDropout(t, fmt.Sprintf("planted %v", planted), sp, out, mask, x, 1, n, rate)
			}
		}
	}
}

// FuzzDropout: an arbitrary seed, rate, length and history position, with
// or without a draw planted at the redraw boundary, through Dropout at both
// element types on every body the host runs, against DropoutEach.
func FuzzDropout(f *testing.F) {
	f.Add(int64(1), 0.5, uint16(100), uint16(0), uint16(0), false)
	f.Add(int64(-7), 0.02, uint16(4099), uint16(2000), uint16(9), true)
	f.Add(int64(math.MinInt64), 0.3, uint16(33), uint16(2047), uint16(31), true)
	f.Fuzz(func(t *testing.T, seed int64, rate float64, n, skip, at uint16, redraw bool) {
		if !(rate >= 0 && rate < 1) {
			return
		}
		s := NewStream(seed)
		for k := int(skip) % (2 * streamAhead); k > 0; k-- {
			s.Uint64()
		}
		if redraw {
			if len(s.buf)-s.pos < streamShort {
				s.shift()
			}
			plant(s, int(at)%streamShort, redrawFrom+uint64(at))
		}
		rng := rand.New(rand.NewSource(seed))
		size := int(n)%(3*streamAhead) + 1
		for _, vb := range []int{8, 32} {
			if vb > hostVectorBytes {
				continue
			}
			setBody(t, vb)
			expectDropout(t, fmt.Sprintf("f32/vector_bytes=%d", vb), s,
				elemValues[float32](rng, size), elemValues[float32](rng, size), elemValues[float32](rng, size), 1, size-1, rate)
			expectDropout(t, fmt.Sprintf("f64/vector_bytes=%d", vb), s,
				elemValues[float64](rng, size), elemValues[float64](rng, size), elemValues[float64](rng, size), 1, size-1, rate)
		}
	})
}

// BenchmarkDropout times dropout's forward pass per element, one call over
// 32768 elements at rate 0.3 and both element types: DropoutEach drawing
// from rand.NewSource (the per-element rand.Float64 loop), and Dropout
// drawing from a Stream on each body the host runs. DESIGN.md §9.2's
// elementwise table quotes it.
func BenchmarkDropout(b *testing.B) {
	benchDropout[float32](b)
	benchDropout[float64](b)
}

func benchDropout[T Float](b *testing.B) {
	const n, rate = 1 << 15, 0.3
	rng := rand.New(rand.NewSource(75))
	x, out, mask := make([]T, n), make([]T, n), make([]T, n)
	for i := range x {
		x[i] = T(rng.NormFloat64())
	}
	keep := T(1 / (1 - rate))
	b.Run(fmt.Sprintf("each/%s", DTypeFor[T]()), func(b *testing.B) {
		src := rand.New(rand.NewSource(76))
		for i := 0; i < b.N; i++ {
			DropoutEach(out, mask, x, keep, rate, src)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
	})
	for _, vb := range []int{8, 32} {
		b.Run(fmt.Sprintf("stream/%s/vector_bytes=%d", DTypeFor[T](), vb), func(b *testing.B) {
			if vb > hostVectorBytes {
				b.Skipf("the %d-byte body cannot run here", vb)
			}
			setBody(b, vb)
			s := NewStream(76)
			for i := 0; i < b.N; i++ {
				Dropout(out, mask, x, keep, rate, s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}
