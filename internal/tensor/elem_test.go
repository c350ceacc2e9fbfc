package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
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
// each body the host runs, at both element types, AdamStep, ReLU,
// ReLUGrad, Tanh, Sigmoid and Mul equal their Go loops bit for bit (expectTwin) over
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
			expectTwin(t, "Tanh", [][]T{dst, x}, off, n,
				func(s [][]T) { Tanh(s[0], s[1]) }, func(s [][]T) { tanhGo(s[0], s[1]) })
			expectTwin(t, "Sigmoid", [][]T{dst, x}, off, n,
				func(s [][]T) { Sigmoid(s[0], s[1]) }, func(s [][]T) { sigmoidGo(s[0], s[1]) })
			expectTwin(t, "Mul", [][]T{dst, x, g}, off, n,
				func(s [][]T) { Mul(s[0], s[1], s[2]) }, func(s [][]T) { mulGo(s[0], s[1], s[2]) })

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
	for _, vb := range []int{8, 32} {
		if vb > hostVectorBytes {
			continue
		}
		setBody(t, vb)
		what := fmt.Sprintf("%s/vector_bytes=%d", DTypeFor[T](), vb)
		expectTwin(t, what+"/ReLU", ops[:2], 0, n,
			func(s [][]T) { ReLU(s[0], s[1]) }, func(s [][]T) { reluGo(s[0], s[1]) })
		expectTwin(t, what+"/ReLUGrad", ops[:3], 0, n,
			func(s [][]T) { ReLUGrad(s[0], s[1], s[2]) }, func(s [][]T) { reluGradGo(s[0], s[1], s[2]) })
		expectTwin(t, what+"/Tanh", ops[:2], 0, n,
			func(s [][]T) { Tanh(s[0], s[1]) }, func(s [][]T) { tanhGo(s[0], s[1]) })
		expectTwin(t, what+"/Sigmoid", ops[:2], 0, n,
			func(s [][]T) { Sigmoid(s[0], s[1]) }, func(s [][]T) { sigmoidGo(s[0], s[1]) })
		expectTwin(t, what+"/Mul", ops[:3], 0, n,
			func(s [][]T) { Mul(s[0], s[1], s[2]) }, func(s [][]T) { mulGo(s[0], s[1], s[2]) })
		expectTwin(t, what+"/Adam", ops, 0, n,
			func(s [][]T) { AdamStep(s[0], s[1], s[2], s[3], k) }, func(s [][]T) { adamGo(s[0], s[1], s[2], s[3], k) })
	}
}

// BenchmarkElemBodies times the elementwise kernels per element, one call
// over 32768 elements at both element types: on the Go loops
// (vector_bytes=8) and on the AVX2 bodies where the host runs them (for
// Tanh and Sigmoid, where expPart does not rule them out). At a few thousand elements the branch
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
		name string
		run  func()
		exp  bool // a Tanh/Sigmoid body, behind expPart
	}{
		{"adam", func() { AdamStep(w, g, m, v, k) }, false},
		{"relu", func() { ReLU(dst, x) }, false},
		{"relu_grad", func() { ReLUGrad(dst, x, g) }, false},
		{"tanh", func() { Tanh(dst, x) }, true},
		{"sigmoid", func() { Sigmoid(dst, x) }, true},
		{"mul", func() { Mul(dst, x, g) }, false},
	}
	for _, kn := range kernels {
		for _, vb := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/%s/vector_bytes=%d", kn.name, DTypeFor[T](), vb), func(b *testing.B) {
				if vb > hostVectorBytes {
					b.Skipf("the %d-byte body cannot run here", vb)
				}
				setBody(b, vb)
				if vb == 32 && kn.exp && expPart(n) == 0 {
					b.Skipf("no %d-byte %s body runs here", vb, kn.name)
				}
				for i := 0; i < b.N; i++ {
					kn.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
			})
		}
	}
}

// TestExpBodiesMatchMath is the long sweep of the Tanh and Sigmoid bodies
// against their Go loops, at both element types, on the inputs where an
// exponential's lanes are most likely to part from math.Exp's: ±64 ulps
// around tanh's branch point 0.625 and its saturation point 0.5·MAXLOG,
// around the arguments where Sigmoid's Exp(−x) leaves the normal path
// (x = −709.78…, where it overflows, and x = 708.39… and 744.44…, where it
// goes subnormal and then to zero), ±0, ±Inf, NaNs, subnormals, uniform
// ranges and random bit patterns. It needs the bodies: on a host where
// expPart rules them out the kernels are their loops, and it skips.
func TestExpBodiesMatchMath(t *testing.T) {
	if expPart(1024) == 0 {
		t.Skip("no Tanh or Sigmoid body runs here: no FMA, no AVX2, or math.Exp unfused (expFused)")
	}
	rng := rand.New(rand.NewSource(64))
	var x []float64
	for _, c := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01, 709.782712893384, -708.3964185322641, -744.4400719213812} {
		for _, s := range []float64{c, -c} {
			b := math.Float64bits(s)
			for d := -64; d <= 64; d++ {
				x = append(x, math.Float64frombits(b+uint64(d)))
			}
		}
	}
	for _, c := range elemCorners[float64]() {
		x = append(x, c)
	}
	for len(x) < 1<<20 {
		switch len(x) % 4 {
		case 0:
			x = append(x, math.Float64frombits(rng.Uint64()))
		case 1:
			x = append(x, (rng.Float64()*2-1)*800)
		case 2:
			x = append(x, rng.NormFloat64()*3)
		default:
			x = append(x, math.Float64frombits(rng.Uint64()&0x800fffffffffffff)) // ±subnormal
		}
	}
	x32 := make([]float32, len(x))
	for i, v := range x {
		x32[i] = float32(v)
	}
	sweepExp(t, x)
	sweepExp(t, x32)
}

func sweepExp[T Float](t *testing.T, x []T) {
	for _, k := range []struct {
		name       string
		body, loop func(dst, x []T)
	}{{"Tanh", Tanh[T], tanhGo[T]}, {"Sigmoid", Sigmoid[T], sigmoidGo[T]}} {
		got, want := make([]T, len(x)), make([]T, len(x))
		k.body(got, x)
		k.loop(want, x)
		bad := 0
		for i := range got {
			if g, w := got[i], want[i]; bitsOf(g) != bitsOf(w) && !(g != g && w != w) {
				if bad++; bad <= 5 {
					t.Errorf("%s/%s(%v = %#x) = %v, Go loop %v", k.name, DTypeFor[T](), x[i], bitsOf(x[i]), g, w)
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s/%s: %d of %d elements differ", k.name, DTypeFor[T](), bad, len(x))
		}
	}
}

// expSequence is archExp's normal path (the math package's exp_amd64.s) in
// Go, with its multiply-adds fused (math.FMA) or not; ok is false off that
// path. The probe's arguments are chosen where the two differ.
func expSequence(x float64, fused bool) (y float64, ok bool) {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	fma := func(a, b, c float64) float64 {
		if fused {
			return math.FMA(a, b, c)
		}
		return a*b + c
	}
	k := math.RoundToEven(log2e * x)
	if x != x || math.IsInf(x, 0) || x > 7.09782712893384e+02 || k+1023 <= 0 || k+1023 >= 0x7ff {
		return 0, false
	}
	r := fma(-ln2u, k, x)
	r = fma(-ln2l, k, r) * 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0} {
		p = fma(p, r, c)
	}
	r *= p
	for i := 0; i < 3; i++ {
		r *= r + 2
	}
	r = fma(r+2, r, 1)
	return r * math.Float64frombits(uint64(k+1023)<<52), true
}

// TestExpProbe holds expFused to what it claims. Each probe argument must
// tell the two sequences apart and carry the fused result; and the probe's
// answer must be the truth on a sample of normal-path arguments: math.Exp
// equals the fused sequence on all of them where expFused holds, and
// differs somewhere where it does not — under GODEBUG=cpu.fma=off it must
// not hold.
func TestExpProbe(t *testing.T) {
	for _, p := range [][2]float64{
		{0.8497425325589525, 2.3390445465784064},
		{-3.069843025532003, 0.04642844236548021},
		{-8.913371177229802, 0.00013457738419050315},
	} {
		f, _ := expSequence(p[0], true)
		u, _ := expSequence(p[0], false)
		if f != p[1] || u == p[1] {
			t.Errorf("probe Exp(%v): fused %v, unfused %v, recorded %v: the argument does not separate them", p[0], f, u, p[1])
		}
	}
	rng := rand.New(rand.NewSource(65))
	agree, sampled := true, 0
	for sampled < 100000 {
		x := (rng.Float64()*2 - 1) * 700
		if f, ok := expSequence(x, true); ok {
			sampled++
			agree = agree && math.Exp(x) == f
		}
	}
	if agree != expFused {
		t.Errorf("expFused = %v, but math.Exp agrees with the fused sequence on all %d sampled arguments: %v", expFused, sampled, agree)
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") && expFused {
		t.Error("expFused holds under GODEBUG=cpu.fma=off")
	}
}
