package checkpoint

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"swtnas/internal/apps"
	"swtnas/internal/data"
	"swtnas/internal/nn"
	"swtnas/internal/tensor"
)

// pack is packer.pack in a fresh packer with its two parts joined: the
// object file's bytes, the caller's to keep.
func pack(stream []byte) ([]byte, error) {
	head, tail, err := new(packer).pack(stream)
	if err != nil {
		return nil, err
	}
	return append(head, tail...), nil
}

// oddModel draws a model from the corners of the format: an empty or short
// arch, empty groups, names of odd and zero length, scalar and zero-element
// tensors, at either dtype.
func oddModel(rng *rand.Rand) *Model {
	name := func() string {
		b := make([]byte, rng.Intn(8)*2+rng.Intn(2))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	ints := func(n int) []int {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(9) - 2
		}
		return xs
	}
	m := &Model{DType: tensor.F64, Arch: ints(rng.Intn(4)), Score: rng.NormFloat64()}
	if rng.Intn(2) == 0 {
		m.DType = tensor.F32
	}
	shapes := [][]int{{}, {0}, {3, 0}, {1}, {5}, {2, 3}, {3, 1, 2}}
	for g := rng.Intn(4); g > 0; g-- {
		grp := Group{Layer: name(), Signature: ints(rng.Intn(3))}
		for n := rng.Intn(4); n > 0; n-- {
			shape := shapes[rng.Intn(len(shapes))]
			data := make([]float64, tensor.Numel(shape))
			for i := range data {
				data[i] = float64(float32(rng.NormFloat64() * 0.1))
			}
			grp.Tensors = append(grp.Tensors, Tensor{Name: name(), Shape: shape, Data: data})
		}
		m.Groups = append(m.Groups, grp)
	}
	return m
}

// TestLayoutAgreesWithEncode: on models from every corner of the format,
// the one SWTC walker agrees with Encode in each of its uses — it finds each
// tensor payload where Encode put it and walks the whole stream (pack),
// finds the same spans in the stream's metadata bytes alone (unpack), and
// fills a model that encodes to the same stream (Decode) — and pack and
// unpack round-trip the stream.
func TestLayoutAgreesWithEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		m := oddModel(rng)
		stream, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		// Encode's layout, counted from the model: header, arch, score, group
		// count, then per group its name, signature and tensor count, and per
		// tensor its name, shape and payload.
		var want []span
		at := 16 + 4 + 4*len(m.Arch) + 8 + 4
		for _, g := range m.Groups {
			at += 4 + len(g.Layer) + 4 + 4*len(g.Signature) + 4
			for _, tt := range g.Tensors {
				at += 4 + len(tt.Name) + 4 + 4*len(tt.Shape)
				want = append(want, span{at: at, n: len(tt.Data)})
				if !bytes.Equal(stream[at:at+len(tt.Data)*m.DType.Size()], appendData(nil, tt.Data, m.DType)) {
					t.Fatalf("trial %d: tensor %q is not where the count puts it", trial, tt.Name)
				}
				at += len(tt.Data) * m.DType.Size()
			}
		}
		dt, spans, walked, err := walk(stream, false, nil)
		if err != nil || dt != m.DType || walked != len(stream) || fmt.Sprint(spans) != fmt.Sprint(want) {
			t.Fatalf("trial %d: layout = %v %v %d %v, want %v %v %d", trial, dt, spans, walked, err, m.DType, want, len(stream))
		}
		if dec, err := Decode(stream); err != nil || !modelsEqual(dec, m) {
			t.Fatalf("trial %d: the decoded model does not encode to the stream (err %v)", trial, err)
		}
		var meta []byte
		prev := 0
		for _, s := range want {
			meta = append(meta, stream[prev:s.at]...)
			prev = s.at + s.n*m.DType.Size()
		}
		meta = append(meta, stream[prev:]...)
		dt, spans, walked, err = walk(meta, true, nil)
		if err != nil || dt != m.DType || walked != len(meta) || fmt.Sprint(spans) != fmt.Sprint(want) {
			t.Fatalf("trial %d: layout of the metadata = %v %v %d %v, want %v %v %d", trial, dt, spans, walked, err, m.DType, want, len(meta))
		}
		obj, err := pack(stream)
		if err != nil {
			t.Fatal(err)
		}
		mf := &Manifest{hash: HashBlob(stream), size: int64(len(stream)), dtype: m.DType}
		if got, err := unpack(mf, obj, true, nil); err != nil || !bytes.Equal(got, stream) {
			t.Fatalf("trial %d: unpack: %v", trial, err)
		}
	}
}

// TestObjectEveryByteCounts: every byte of an object file carries at least
// one bit the reader uses, so flipping all eight bits of any one of them —
// framing, coded section, verbatim mantissa bytes or checksum — must fail
// unpack even without the hash check, on both element widths.
func TestObjectEveryByteCounts(t *testing.T) {
	for _, m := range []*Model{casModel(24, 2), casModelF32(25, 2)} {
		_, mf := manifestOf(t, m)
		stream, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		obj, err := pack(stream)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := unpack(mf, obj, true, nil); err != nil || !bytes.Equal(got, stream) {
			t.Fatalf("%v: the honest object does not unpack to its stream: %v", m.DType, err)
		}
		for i := range obj {
			obj[i] ^= 0xFF
			if _, err := unpack(mf, obj, false, nil); err == nil || !strings.Contains(err.Error(), mf.hash.String()) {
				t.Fatalf("%v: flipping byte %d of %d: err = %v, want one naming %s", m.DType, i, len(obj), err, mf.hash)
			}
			obj[i] ^= 0xFF
		}
	}
}

// TestObjectInsertedByteRefused: one byte inserted anywhere in either
// section — the coded length adjusted when it lands in the coded section, so
// the framing still adds up — must fail unpack even without the hash check:
// inside the deflate stream it changes what inflates, at its end it trails
// the stream, and in the verbatim section it breaks the layout.
func TestObjectInsertedByteRefused(t *testing.T) {
	for _, m := range []*Model{casModel(28, 2), casModelF32(29, 2)} {
		_, mf := manifestOf(t, m)
		stream, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		obj, err := pack(stream)
		if err != nil {
			t.Fatal(err)
		}
		codedEnd := objectHead + int(binary.LittleEndian.Uint64(obj[len(objectMagic):]))
		for i := objectHead; i <= len(obj)-objectTail; i++ {
			grown := append(append(append([]byte(nil), obj[:i]...), 0), obj[i:]...)
			if i <= codedEnd {
				binary.LittleEndian.PutUint64(grown[len(objectMagic):], uint64(codedEnd+1-objectHead))
			}
			if _, err := unpack(mf, grown, false, nil); err == nil {
				t.Fatalf("%v: a byte inserted at %d of %d (coded section ends at %d) was accepted", m.DType, i, len(obj), codedEnd)
			}
		}
	}
}

// TestObjectSectionsMustMatchLayout: an object whose coded section is one
// plane byte short, with that byte moved to the verbatim section, has every
// length right but the split wrong; unpack refuses it by its layout instead
// of reading past the planes.
func TestObjectSectionsMustMatchLayout(t *testing.T) {
	for _, m := range []*Model{casModel(30, 2), casModelF32(31, 2)} {
		_, mf := manifestOf(t, m)
		stream, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		obj, err := pack(stream)
		if err != nil {
			t.Fatal(err)
		}
		codedEnd := objectHead + int(binary.LittleEndian.Uint64(obj[len(objectMagic):]))
		plain, err := io.ReadAll(flate.NewReader(bytes.NewReader(obj[objectHead:codedEnd])))
		if err != nil {
			t.Fatal(err)
		}
		var coded bytes.Buffer
		zw, err := flate.NewWriter(&coded, flate.HuffmanOnly)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(plain[:len(plain)-1]); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		verbatim := append([]byte{plain[len(plain)-1]}, obj[codedEnd:len(obj)-objectTail]...)
		crc := binary.LittleEndian.Uint32(obj[len(obj)-objectTail:])
		if _, err := unpack(mf, rawObject(coded.Bytes(), verbatim, crc), false, nil); err == nil || !strings.Contains(err.Error(), "does not lay out") {
			t.Fatalf("%v: err = %v, want one saying the object does not lay out its elements", m.DType, err)
		}
	}
}

// appStream encodes a freshly built candidate of the named application,
// drawing architectures until one's stream is within a quarter of target
// bytes: a checkpoint of the size and weight distribution a search saves. A
// target of 0 takes the first draw.
func appStream(tb testing.TB, name string, dt tensor.DType, target int) []byte {
	app, err := apps.New(name, 1, apps.Config{Data: data.Config{TrainN: 8, ValN: 4}})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for draw := 0; draw < 200; draw++ {
		arch := app.Space.Random(rng)
		net, err := app.Space.Build(arch, rng)
		if err != nil {
			tb.Fatal(err)
		}
		m := FromNetwork(arch, 0.5, net)
		if dt == tensor.F32 {
			net32, err := nn.ConvertNetwork[float32](net)
			if err != nil {
				tb.Fatal(err)
			}
			m = FromNetworkOf(arch, 0.5, net32)
		}
		buf, err := m.Encode()
		if err != nil {
			tb.Fatal(err)
		}
		if n := len(buf); target == 0 || 4*n >= 3*target && 4*n <= 5*target {
			return buf
		}
	}
	tb.Fatalf("no %s candidate of about %d bytes", name, target)
	return nil
}

// packedObjects are the SHA-256 of the object file of each application's
// first random candidate at each dtype (appStream with target 0), its
// stream's length, as pack made them before it split payloads in one pass
// (per-plane gathers, an element-at-a-time low-byte copy and a fresh
// deflate writer an object).
var packedObjects = []struct {
	app    string
	dt     tensor.DType
	size   int
	sha256 string
}{
	{"cifar10", tensor.F64, 45240, "9e682918dd3e6274265d729c9ff37dc78efc0eb010706b7825973532a7880be3"},
	{"cifar10", tensor.F32, 23232, "bc2a8b2fd66129597427573b7361564e7f59b7e43c53a37aaab23c8d9b861fab"},
	{"mnist", tensor.F64, 152093, "f3805ea60d9b44d376fa67476f246af70a35ad984a3892f538d9b8afaf9400a9"},
	{"mnist", tensor.F32, 76277, "7f4c906c79adf6c941fb54c7c63d0e8721c228568e89c1817880e987cbb91547"},
	{"nt3", tensor.F64, 1395949, "4d78f69b126a0f1613d36b6947d6a5cff22e0920492c5e7d1467fcf7954a125c"},
	{"nt3", tensor.F32, 698149, "ac8231e1e7814002bed18be1e64c55f90b2ddd19666293561c741364b833998a"},
	{"uno", tensor.F64, 187575, "e23b587322efec5fe505308cec658a03ac0f6e6d14ecff899b787b9f07ae58b4"},
	{"uno", tensor.F32, 94003, "8e40b883e7b43eaa2c5ac2065e9d3abc5e7104b4a271249f6de40f52cfc748e1"},
}

// TestPackBytesUnchanged: the objects pack makes of real candidates of all
// four applications at both dtypes are byte for byte the earlier writer's
// (packedObjects) — from a fresh packer, and from one that packed every
// other object first, as a pooled one has — so stores written before and
// after share every object file.
func TestPackBytesUnchanged(t *testing.T) {
	used := new(packer)
	for i := len(packedObjects) - 1; i >= 0; i-- {
		c := packedObjects[i]
		if _, _, err := used.pack(appStream(t, c.app, c.dt, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range packedObjects {
		stream := appStream(t, c.app, c.dt, 0)
		if len(stream) != c.size {
			t.Fatalf("%s/%v: the candidate's stream is %d bytes, want %d: the draw changed, not pack", c.app, c.dt, len(stream), c.size)
		}
		obj, err := pack(stream)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(obj)); got != c.sha256 {
			t.Errorf("%s/%v: the object hashes to %s, want %s", c.app, c.dt, got, c.sha256)
		}
		head, tail, err := used.pack(stream)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(append([]byte(nil), head...), tail...), obj) {
			t.Errorf("%s/%v: a used packer's object differs from a fresh one's", c.app, c.dt)
		}
	}
}

// objectBenchCases are the disk backend's two typical objects: an nt3/f64
// candidate of ~1.3 MB and an uno/f32 one of ~0.2 MB.
var objectBenchCases = []struct {
	name   string
	dt     tensor.DType
	target int
}{
	{"nt3", tensor.F64, 1300 << 10},
	{"uno", tensor.F32, 200 << 10},
}

// BenchmarkObjectPack is the disk backend's write-side encoding of one
// candidate's stream; the reported ratio is object bytes per stream byte.
// Each case runs twice: in a fresh packer an object (its deflate writer and
// buffers allocated and their pages faulted in), and, as /reused, in one
// packer kept across objects, as the store's pooled saves run it.
func BenchmarkObjectPack(b *testing.B) {
	for _, c := range objectBenchCases {
		stream := appStream(b, c.name, c.dt, c.target)
		for _, reused := range []bool{false, true} {
			b.Run(benchCaseName(c.name, c.dt, reused), func(b *testing.B) {
				b.SetBytes(int64(len(stream)))
				p, size := new(packer), 0
				for i := 0; i < b.N; i++ {
					if !reused {
						p = new(packer)
					}
					head, tail, err := p.pack(stream)
					if err != nil {
						b.Fatal(err)
					}
					size = len(head) + len(tail)
				}
				b.ReportMetric(float64(size)/float64(len(stream)), "ratio")
			})
		}
	}
}

// BenchmarkObjectUnpack is the read side: unpack with the first-read hash
// check, as a resume or a fresh store's first Load runs it — in fresh
// buffers an object, and, as /reused, in one set kept across objects, as
// the store's pooled reads run it.
func BenchmarkObjectUnpack(b *testing.B) {
	for _, c := range objectBenchCases {
		stream := appStream(b, c.name, c.dt, c.target)
		obj, err := pack(stream)
		if err != nil {
			b.Fatal(err)
		}
		mf := &Manifest{hash: HashBlob(stream), size: int64(len(stream)), dtype: c.dt}
		for _, reused := range []bool{false, true} {
			b.Run(benchCaseName(c.name, c.dt, reused), func(b *testing.B) {
				b.SetBytes(int64(len(stream)))
				var buf *objectBuffers
				if reused {
					buf = new(objectBuffers)
				}
				for i := 0; i < b.N; i++ {
					if _, err := unpack(mf, obj, true, buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchCaseName names an object benchmark's case: app/dtype, the row
// BENCH_5.json gates, for fresh buffers, and app/dtype/reused beside it.
func benchCaseName(app string, dt tensor.DType, reused bool) string {
	if reused {
		return fmt.Sprintf("%s/%v/reused", app, dt)
	}
	return fmt.Sprintf("%s/%v", app, dt)
}
