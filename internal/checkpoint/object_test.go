package checkpoint

import (
	"bytes"
	"compress/flate"
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
// layout finds each tensor payload where Encode put it, walks the whole
// stream, finds the same spans in the stream's metadata bytes alone, and
// pack and unpack round-trip the stream.
func TestLayoutAgreesWithEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		m := oddModel(rng)
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		stream := buf.Bytes()
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
				if !bytes.Equal(stream[at:at+len(tt.Data)*m.DType.Size()], encodeTensorData(tt.Data, m.DType)) {
					t.Fatalf("trial %d: tensor %q is not where the count puts it", trial, tt.Name)
				}
				at += len(tt.Data) * m.DType.Size()
			}
		}
		dt, spans, walked, err := layout(stream, false)
		if err != nil || dt != m.DType || walked != len(stream) || fmt.Sprint(spans) != fmt.Sprint(want) {
			t.Fatalf("trial %d: layout = %v %v %d %v, want %v %v %d", trial, dt, spans, walked, err, m.DType, want, len(stream))
		}
		var meta []byte
		prev := 0
		for _, s := range want {
			meta = append(meta, stream[prev:s.at]...)
			prev = s.at + s.n*m.DType.Size()
		}
		meta = append(meta, stream[prev:]...)
		dt, spans, walked, err = layout(meta, true)
		if err != nil || dt != m.DType || walked != len(meta) || fmt.Sprint(spans) != fmt.Sprint(want) {
			t.Fatalf("trial %d: layout of the metadata = %v %v %d %v, want %v %v %d", trial, dt, spans, walked, err, m.DType, want, len(meta))
		}
		obj, err := pack(stream)
		if err != nil {
			t.Fatal(err)
		}
		mf := &Manifest{hash: HashBlob(stream), size: int64(len(stream)), dtype: m.DType}
		if got, err := unpack(mf, obj, true); err != nil || !bytes.Equal(got, stream) {
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
		var stream bytes.Buffer
		if err := m.Encode(&stream); err != nil {
			t.Fatal(err)
		}
		obj, err := pack(stream.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got, err := unpack(mf, obj, true); err != nil || !bytes.Equal(got, stream.Bytes()) {
			t.Fatalf("%v: the honest object does not unpack to its stream: %v", m.DType, err)
		}
		for i := range obj {
			obj[i] ^= 0xFF
			if _, err := unpack(mf, obj, false); err == nil || !strings.Contains(err.Error(), mf.hash.String()) {
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
		var stream bytes.Buffer
		if err := m.Encode(&stream); err != nil {
			t.Fatal(err)
		}
		obj, err := pack(stream.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		codedEnd := objectHead + int(binary.LittleEndian.Uint64(obj[len(objectMagic):]))
		for i := objectHead; i <= len(obj)-objectTail; i++ {
			grown := append(append(append([]byte(nil), obj[:i]...), 0), obj[i:]...)
			if i <= codedEnd {
				binary.LittleEndian.PutUint64(grown[len(objectMagic):], uint64(codedEnd+1-objectHead))
			}
			if _, err := unpack(mf, grown, false); err == nil {
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
		var stream bytes.Buffer
		if err := m.Encode(&stream); err != nil {
			t.Fatal(err)
		}
		obj, err := pack(stream.Bytes())
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
		if _, err := unpack(mf, rawObject(coded.Bytes(), verbatim, crc), false); err == nil || !strings.Contains(err.Error(), "does not lay out") {
			t.Fatalf("%v: err = %v, want one saying the object does not lay out its elements", m.DType, err)
		}
	}
}

// appStream encodes a freshly built candidate of the named application,
// drawing architectures until one's stream is within a quarter of target
// bytes: a checkpoint of the size and weight distribution a search saves.
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
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			tb.Fatal(err)
		}
		if n := buf.Len(); 4*n >= 3*target && 4*n <= 5*target {
			return buf.Bytes()
		}
	}
	tb.Fatalf("no %s candidate of about %d bytes", name, target)
	return nil
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
func BenchmarkObjectPack(b *testing.B) {
	for _, c := range objectBenchCases {
		stream := appStream(b, c.name, c.dt, c.target)
		b.Run(fmt.Sprintf("%s/%v", c.name, c.dt), func(b *testing.B) {
			b.SetBytes(int64(len(stream)))
			var obj []byte
			for i := 0; i < b.N; i++ {
				var err error
				if obj, err = pack(stream); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(obj))/float64(len(stream)), "ratio")
		})
	}
}

// BenchmarkObjectUnpack is the read side: unpack with the first-read hash
// check, as a resume or a fresh store's first Load runs it.
func BenchmarkObjectUnpack(b *testing.B) {
	for _, c := range objectBenchCases {
		stream := appStream(b, c.name, c.dt, c.target)
		obj, err := pack(stream)
		if err != nil {
			b.Fatal(err)
		}
		mf := &Manifest{hash: HashBlob(stream), size: int64(len(stream)), dtype: c.dt}
		b.Run(fmt.Sprintf("%s/%v", c.name, c.dt), func(b *testing.B) {
			b.SetBytes(int64(len(stream)))
			for i := 0; i < b.N; i++ {
				if _, err := unpack(mf, obj, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
