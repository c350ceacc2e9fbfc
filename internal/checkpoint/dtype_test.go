package checkpoint

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"swtnas/internal/nn"
	"swtnas/internal/tensor"
)

// casModelF32 is casModel with f32-representable data and the F32 dtype tag
// — the shape of a checkpoint produced by FromNetworkOf on an f32-trained
// network (every float64 value widened from a float32).
func casModelF32(seed int64, layers int) *Model {
	m := casModel(seed, layers)
	m.DType = tensor.F32
	for gi := range m.Groups {
		for ti := range m.Groups[gi].Tensors {
			d := m.Groups[gi].Tensors[ti].Data
			for i, v := range d {
				d[i] = float64(float32(v))
			}
		}
	}
	return m
}

// TestF32ModelRoundTrip: an F32-tagged model must survive the stream bit for
// bit (its values are f32-representable, so 4 bytes per element is lossless)
// and come back still tagged F32.
func TestF32ModelRoundTrip(t *testing.T) {
	m := casModelF32(11, 3)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.DType != tensor.F32 {
		t.Fatalf("decoded dtype %v, want F32", got.DType)
	}
	if !modelsEqual(m, got) {
		t.Fatal("f32 round trip is not bit-identical")
	}
}

// TestModelsEncodeAtNativeWidth: under the one header both dtypes share, an
// f32 stream is smaller than the f64 stream of the same model by exactly
// 4 bytes per element.
func TestModelsEncodeAtNativeWidth(t *testing.T) {
	m64 := casModel(12, 4)
	m32 := casModelF32(12, 4)
	var b64, b32 bytes.Buffer
	if err := m64.Encode(&b64); err != nil {
		t.Fatal(err)
	}
	if err := m32.Encode(&b32); err != nil {
		t.Fatal(err)
	}
	elems := 0
	for _, g := range m64.Groups {
		for _, ts := range g.Tensors {
			elems += len(ts.Data)
		}
	}
	if saved := b64.Len() - b32.Len(); saved != 4*elems {
		t.Fatalf("f32 stream saves %d bytes over f64 for %d elements; want %d", saved, elems, 4*elems)
	}
}

// TestDecodeRejectsBadDType corrupts the dtype word; Decode must fail rather
// than misinterpret tensor widths.
func TestDecodeRejectsBadDType(t *testing.T) {
	m := casModelF32(13, 1)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8] = 0x77 // the dtype word follows the 4-byte magic and the version
	if _, err := Decode(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "dtype") {
		t.Fatalf("corrupt dtype word: err = %v, want one naming the dtype", err)
	}
}

// TestF32ManifestRoundTrip: an F32 model's object is its 4-byte-per-element
// stream on both backends — the manifest says F32 and names that stream's
// length and hash — and it loads back bit for bit, still tagged F32, through
// the disk backend's object split at the 4-byte width (byte 3 of each
// element coded, bytes 0–2 verbatim).
func TestF32ManifestRoundTrip(t *testing.T) {
	casStores(t, func(t *testing.T, s *CASStore) {
		m := casModelF32(14, 3)
		var stream bytes.Buffer
		if err := m.Encode(&stream); err != nil {
			t.Fatal(err)
		}
		n, err := s.Save("a", m)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := s.EncodedManifest("a")
		if err != nil {
			t.Fatal(err)
		}
		mf, err := DecodeManifest(enc)
		if err != nil {
			t.Fatal(err)
		}
		if want := (Manifest{hash: HashBlob(stream.Bytes()), size: n, dtype: tensor.F32}); *mf != want || n != int64(stream.Len()) {
			t.Fatalf("manifest = %+v, want %+v with the stream's %d bytes", *mf, want, stream.Len())
		}
		got, err := s.Load("a")
		if err != nil {
			t.Fatal(err)
		}
		if got.DType != tensor.F32 {
			t.Fatalf("loaded model dtype %v, want F32", got.DType)
		}
		if !modelsEqual(m, got) {
			t.Fatal("f32 store round trip is not bit-identical")
		}
	})
}

// TestF32ModelCASDedup is the f32 leg of the store's sharing contract: two ids
// saved with the same F32 model share one object, the F64 model of the very
// same values is another (its stream is 8 bytes wide, so it hashes apart), and
// each loads back bit-identical under its own dtype.
func TestF32ModelCASDedup(t *testing.T) {
	casStores(t, func(t *testing.T, s *CASStore) {
		m32 := casModelF32(16, 5)
		m64 := casModelF32(16, 5)
		m64.DType = tensor.F64
		for id, m := range map[string]*Model{"a": m32, "b": casModelF32(16, 5), "wide": m64} {
			if _, err := s.Save(id, m); err != nil {
				t.Fatal(err)
			}
		}
		ma, _ := s.EncodedManifest("a")
		mb, _ := s.EncodedManifest("b")
		mw, _ := s.EncodedManifest("wide")
		if !bytes.Equal(ma, mb) || bytes.Equal(ma, mw) {
			t.Fatal("the same f32 model must name one object, its f64 twin another")
		}
		if s.disk != nil {
			if st := s.Stats(); st.BlobsLive != 2 || st.Manifests != 3 {
				t.Fatalf("stats = %+v, want 3 manifests naming 2 objects", st)
			}
		}
		if err := s.Delete("a"); err != nil {
			t.Fatal(err)
		}
		got32, err := s.Load("b")
		if err != nil {
			t.Fatal(err)
		}
		got64, err := s.Load("wide")
		if err != nil {
			t.Fatal(err)
		}
		if !modelsEqual(m32, got32) || !modelsEqual(m64, got64) {
			t.Fatal("f32 CAS load is not bit-identical")
		}
		if got32.DType != tensor.F32 || got64.DType != tensor.F64 {
			t.Fatalf("loaded dtypes %v/%v, want F32/F64", got32.DType, got64.DType)
		}
	})
}

// TestFromNetworkOfF32RoundTrip: a float32 network checkpoints with the F32
// tag and restores into a fresh float32 network with every weight bit
// preserved (f32 → f64 widening → f32 narrowing is exact).
func TestFromNetworkOfF32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	build := func() *nn.Network {
		net := nn.NewNetwork([]int{6})
		h := net.MustAdd(nn.NewDense("h", 6, 5, 0, rand.New(rand.NewSource(5))), nn.GraphInput(0))
		net.MustAdd(nn.NewDense("out", 5, 2, 0, rand.New(rand.NewSource(6))), h)
		return net
	}
	net32, err := nn.ConvertNetwork[float32](build())
	if err != nil {
		t.Fatal(err)
	}
	// Perturb so the restore target (freshly converted, identical init)
	// can't pass by accident.
	for _, p := range net32.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += float32(rng.NormFloat64())
		}
	}
	m := FromNetworkOf([]int{1, 2}, 0.5, net32)
	if m.DType != tensor.F32 {
		t.Fatalf("checkpoint dtype %v, want F32", m.DType)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := nn.ConvertNetwork[float32](build())
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreIntoOf(dec, fresh); err != nil {
		t.Fatal(err)
	}
	want := net32.Params()
	got := fresh.Params()
	for i, p := range want {
		for j, v := range p.W.Data {
			if got[i].W.Data[j] != v {
				t.Fatalf("param %s[%d]: restored %g, want %g", p.Name, j, got[i].W.Data[j], v)
			}
		}
	}
}
