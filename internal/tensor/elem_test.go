package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bitsOf returns v's bit pattern.
func bitsOf[T Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(any(v).(float64))
}

// fromBits returns the T whose bit pattern is b (its low 32 bits for float32).
func fromBits[T Float](b uint64) T {
	var z T
	if _, ok := any(z).(float32); ok {
		return any(math.Float32frombits(uint32(b))).(T)
	}
	return any(math.Float64frombits(b)).(T)
}

// elemCorners are the IEEE values every operand of the elementwise tests
// meets, as bit patterns: ±0, ±Inf, quiet NaNs of both signs and two
// payloads, a signaling NaN, the smallest subnormal of each sign, a larger
// subnormal and ±max-finite.
func elemCorners[T Float]() []T {
	bits := []uint64{0, 1 << 63, 0x7ff0000000000000, 0xfff0000000000000, 0x7ff8000000000000,
		0xfff8000000000000, 0x7ff8000000012345, 0x7ff0000000000001, 1, 1<<63 | 1,
		0x0008000000000000, 0x7fefffffffffffff, 0xffefffffffffffff}
	var z T
	if _, ok := any(z).(float32); ok {
		bits = []uint64{0, 1 << 31, 0x7f800000, 0xff800000, 0x7fc00000,
			0xffc00000, 0x7fc12345, 0x7f800001, 1, 1<<31 | 1,
			0x00400000, 0x7f7fffff, 0xff7fffff}
	}
	out := make([]T, len(bits))
	for i, b := range bits {
		out[i] = fromBits[T](b)
	}
	return out
}

// elemValues returns n values of T: normal values over several decades, one
// in eight of them a corner.
func elemValues[T Float](rng *rand.Rand, n int) []T {
	corners := elemCorners[T]()
	s := make([]T, n)
	for i := range s {
		s[i] = T(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
		if rng.Intn(8) == 0 {
			s[i] = corners[rng.Intn(len(corners))]
		}
	}
	return s
}

// adamCoefs returns the coefficients of Adam step t with the paper's
// hyper-parameters, as AdamOf.Step rounds them into T.
func adamCoefs[T Float](t int, l2 float64) *AdamCoefs[T] {
	return &AdamCoefs[T]{
		B1: T(0.9), OB1: T(1 - 0.9), B2: T(0.999), OB2: T(1 - 0.999),
		C1: T(1 - math.Pow(0.9, float64(t))), C2: T(1 - math.Pow(0.999, float64(t))),
		LR: T(0.001), Eps: T(1e-7), L2x2: T(2 * l2), L2: l2 != 0,
	}
}

// expectTwin runs kernel and the Go loop over copies of ops, each handed the
// window [off, off+n) of every operand, and wants every operand bit for bit
// equal afterwards — in the window and around it, so a body that writes
// outside its call fails too. Any NaN matches any NaN: which payload
// survives a NaN meeting a NaN depends on the operand order the compiler's
// register allocator gives the Go loop, and the race detector's
// instrumentation alone changes it.
func expectTwin[T Float](t *testing.T, what string, ops [][]T, off, n int, kernel, loop func(s [][]T)) {
	t.Helper()
	got, want := make([][]T, len(ops)), make([][]T, len(ops))
	gotW, wantW := make([][]T, len(ops)), make([][]T, len(ops))
	for i, op := range ops {
		got[i], want[i] = append([]T(nil), op...), append([]T(nil), op...)
		gotW[i], wantW[i] = got[i][off:off+n], want[i][off:off+n]
	}
	kernel(gotW)
	loop(wantW)
	for i := range want {
		for j := range want[i] {
			g, w := got[i][j], want[i][j]
			if bitsOf(g) != bitsOf(w) && !(g != g && w != w) {
				t.Fatalf("%s n=%d off=%d: operand %d element %d = %v (%#x), Go loop %v (%#x)",
					what, n, off, i, j, g, bitsOf(g), w, bitsOf(w))
			}
		}
	}
}

// TestElemBodiesMatchGo is the twin sweep of the elementwise kernels: on
// each body the host runs, at both element types, AdamStep, ReLU and
// ReLUGrad equal their Go loops bit for bit (expectTwin) over
// every length 0–67 (every tail of every lane count, and several whole
// vectors) at start offsets 0–3 (every misalignment), with IEEE corners in
// every operand — signaling and quiet NaNs, ±Inf, ±0, subnormals and
// ±max-finite. Adam runs with L2 off, on, and on at a coefficient of +0
// (0·Inf is NaN, so the flag is not the coefficient), and with corners in
// its coefficients too. Under the purego tag the kernels are the loops and
// this passes trivially; the leg exists to run them.
func TestElemBodiesMatchGo(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		t.Run("f32", testElemBodies[float32])
		t.Run("f64", testElemBodies[float64])
	})
}

func testElemBodies[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const maxLen, maxOff = 67, 3
	size := maxLen + maxOff + 1 // a guard element past the longest window
	corners := elemCorners[T]()
	for n := 0; n <= maxLen; n++ {
		for off := 0; off <= maxOff; off++ {
			x, g, dst := elemValues[T](rng, size), elemValues[T](rng, size), elemValues[T](rng, size)
			expectTwin(t, "ReLU", [][]T{dst, x}, off, n,
				func(s [][]T) { ReLU(s[0], s[1]) }, func(s [][]T) { reluGo(s[0], s[1]) })
			expectTwin(t, "ReLUGrad", [][]T{dst, x, g}, off, n,
				func(s [][]T) { ReLUGrad(s[0], s[1], s[2]) }, func(s [][]T) { reluGradGo(s[0], s[1], s[2]) })

			special := adamCoefs[T](1, 0)
			for _, c := range []*T{&special.B1, &special.OB1, &special.B2, &special.OB2, &special.C1, &special.C2, &special.LR, &special.Eps, &special.L2x2} {
				if rng.Intn(3) == 0 {
					*c = corners[rng.Intn(len(corners))]
				}
			}
			special.L2 = rng.Intn(2) == 0
			zeroL2 := adamCoefs[T](3, 0)
			zeroL2.L2 = true
			for _, c := range []struct {
				name string
				k    *AdamCoefs[T]
			}{
				{"Adam", adamCoefs[T](1, 0)},
				{"Adam/L2", adamCoefs[T](7, 5e-4)},
				{"Adam/L2=+0", zeroL2},
				{"Adam/corner coefficients", special},
			} {
				w, m, v := elemValues[T](rng, size), elemValues[T](rng, size), elemValues[T](rng, size)
				expectTwin(t, c.name, [][]T{w, g, m, v}, off, n,
					func(s [][]T) { AdamStep(s[0], s[1], s[2], s[3], c.k) },
					func(s [][]T) { adamGo(s[0], s[1], s[2], s[3], c.k) })
			}
		}
	}
}

// FuzzElementwise is the differential form of the sweep: arbitrary bytes are
// the bit patterns of the Adam coefficients and of four operands, at both
// element types, and every kernel on every body the host runs must equal
// its Go loop bit for bit.
func FuzzElementwise(f *testing.F) {
	rng := rand.New(rand.NewSource(62))
	for _, n := range []int{0, 3, 8, 21, 64} {
		seed := make([]byte, 0, 8*(9+4*n))
		for _, v := range elemValues[float64](rng, 9+4*n) {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
		f.Add(seed, n%2 == 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, l2 bool) {
		fuzzElem[float32](t, data, l2)
		fuzzElem[float64](t, data, l2)
	})
}

func fuzzElem[T Float](t *testing.T, data []byte, l2 bool) {
	size := DTypeFor[T]().Size()
	vals := make([]T, len(data)/size)
	for i := range vals {
		if size == 4 {
			vals[i] = fromBits[T](uint64(binary.LittleEndian.Uint32(data[4*i:])))
		} else {
			vals[i] = fromBits[T](binary.LittleEndian.Uint64(data[8*i:]))
		}
	}
	k := adamCoefs[T](1, 0)
	coefs := []*T{&k.B1, &k.OB1, &k.B2, &k.OB2, &k.C1, &k.C2, &k.LR, &k.Eps, &k.L2x2}
	for i := 0; i < len(coefs) && len(vals) > 0; i++ {
		*coefs[i], vals = vals[0], vals[1:]
	}
	k.L2 = l2
	n := len(vals) / 4
	ops := [][]T{vals[:n], vals[n : 2*n], vals[2*n : 3*n], vals[3*n : 4*n]}
	bodies := []int{gemmVectorBytes}
	if gemmVectorBytes != 8 {
		bodies = []int{16}
		if hostVectorBytes == 32 {
			bodies = append(bodies, 32)
		}
	}
	for _, vb := range bodies {
		setBody(t, vb)
		what := fmt.Sprintf("%s/vector_bytes=%d", DTypeFor[T](), vb)
		expectTwin(t, what+"/ReLU", ops[:2], 0, n,
			func(s [][]T) { ReLU(s[0], s[1]) }, func(s [][]T) { reluGo(s[0], s[1]) })
		expectTwin(t, what+"/ReLUGrad", ops[:3], 0, n,
			func(s [][]T) { ReLUGrad(s[0], s[1], s[2]) }, func(s [][]T) { reluGradGo(s[0], s[1], s[2]) })
		expectTwin(t, what+"/Adam", ops, 0, n,
			func(s [][]T) { AdamStep(s[0], s[1], s[2], s[3], k) }, func(s [][]T) { adamGo(s[0], s[1], s[2], s[3], k) })
	}
}

// BenchmarkElemBodies times the elementwise kernels per element, one call
// over 32768 elements at both element types: the Go loops (vector_bytes=8)
// and each body the host runs. At a few thousand elements the branch
// predictor learns the ReLU loops' random signs across iterations and flatters
// them fourfold; at this size it cannot, as in a search. DESIGN.md §9.2's
// elementwise table is this benchmark.
func BenchmarkElemBodies(b *testing.B) {
	benchElem[float32](b)
	benchElem[float64](b)
}

func benchElem[T Float](b *testing.B) {
	const n = 1 << 15
	rng := rand.New(rand.NewSource(63))
	randn := func() []T {
		s := make([]T, n)
		for i := range s {
			s[i] = T(rng.NormFloat64())
		}
		return s
	}
	x, g, w, m, v, dst := randn(), randn(), randn(), randn(), randn(), make([]T, n)
	for i := range v {
		v[i] *= v[i]
	}
	k := adamCoefs[T](10, 0)
	kernels := []struct {
		name       string
		loop, body func()
	}{
		{"adam", func() { adamGo(w, g, m, v, k) }, func() { AdamStep(w, g, m, v, k) }},
		{"relu", func() { reluGo(dst, x) }, func() { ReLU(dst, x) }},
		{"relu_grad", func() { reluGradGo(dst, x, g) }, func() { ReLUGrad(dst, x, g) }},
	}
	for _, kn := range kernels {
		for _, vb := range []int{8, 16, 32} {
			b.Run(fmt.Sprintf("%s/%s/vector_bytes=%d", kn.name, DTypeFor[T](), vb), func(b *testing.B) {
				run := kn.body
				switch {
				case vb == 8:
					run = kn.loop
				case vb > hostVectorBytes:
					b.Skipf("the %d-byte body cannot run here", vb)
				default:
					setBody(b, vb)
				}
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
			})
		}
	}
}
