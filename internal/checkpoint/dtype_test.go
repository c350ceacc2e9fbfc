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

// TestF32ManifestRoundTrip: the CAS manifest of an F32 model (SWTM v2) must
// round-trip with its 4-byte blobs and restore the model bit for bit.
func TestF32ManifestRoundTrip(t *testing.T) {
	m := casModelF32(14, 3)
	mf, blobs := ManifestOf(m)
	if mf.DType != tensor.F32 {
		t.Fatalf("manifest dtype %v, want F32", mf.DType)
	}
	elems, blobBytes := 0, 0
	for _, g := range m.Groups {
		for _, ts := range g.Tensors {
			elems += len(ts.Data)
		}
	}
	for _, b := range blobs {
		blobBytes += len(b)
	}
	if blobBytes != 4*elems {
		t.Fatalf("blobs hold %d bytes for %d elements; want %d (f32 width)", blobBytes, elems, 4*elems)
	}
	enc, err := EncodeManifest(mf)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.DType != tensor.F32 {
		t.Fatalf("decoded manifest dtype %v, want F32", dec.DType)
	}
	got, err := dec.Resolve(func(h Hash) ([]byte, error) { return blobs[h], nil })
	if err != nil {
		t.Fatal(err)
	}
	if got.DType != tensor.F32 {
		t.Fatalf("resolved model dtype %v, want F32", got.DType)
	}
	if !modelsEqual(m, got) {
		t.Fatal("f32 manifest round trip is not bit-identical")
	}
}

// TestF64ManifestBytesUnchanged: F64 manifests must keep encoding as SWTM
// v1, byte for byte — old stores and journals hold those bytes.
func TestF64ManifestBytesUnchanged(t *testing.T) {
	mf, _ := ManifestOf(casModel(15, 2))
	enc, err := EncodeManifest(mf)
	if err != nil {
		t.Fatal(err)
	}
	// "SWTM" magic then version word 1.
	if enc[4] != 1 || enc[5] != 0 || enc[6] != 0 || enc[7] != 0 {
		t.Fatalf("f64 manifest version word = % x, want 01 00 00 00", enc[4:8])
	}
}

// TestF32ModelCASDedup is the f32 leg of the CAS dedup contract: a parent
// and a child sharing 4 of 5 layers must share those layers' 4-byte blobs,
// and both must load back bit-identical — through the width-aware
// byte-plane shuffle filter on the disk backend.
func TestF32ModelCASDedup(t *testing.T) {
	casStores(t, func(t *testing.T, s *CASStore) {
		parent := casModelF32(16, 5)
		child := mutate(parent, 2, 99)
		child.DType = tensor.F32
		for i := range child.Groups[2].Tensors {
			d := child.Groups[2].Tensors[i].Data
			for j, v := range d {
				d[j] = float64(float32(v))
			}
		}
		if _, err := s.Save("p", parent); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Save("c", child); err != nil {
			t.Fatal(err)
		}
		// parent: 10 blobs stored; child: 2 new (mutated layer), 8 deduped —
		// same counts as the f64 dedup test, now on 4-byte blobs.
		if st := s.Stats(); st.BlobsStored != 12 || st.BlobsDeduped != 8 {
			t.Fatalf("BlobsStored/Deduped = %d/%d, want 12/8", st.BlobsStored, st.BlobsDeduped)
		}
		gotP, err := s.Load("p")
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := s.Load("c")
		if err != nil {
			t.Fatal(err)
		}
		if !modelsEqual(parent, gotP) || !modelsEqual(child, gotC) {
			t.Fatal("f32 CAS load is not bit-identical")
		}
		if gotP.DType != tensor.F32 || gotC.DType != tensor.F32 {
			t.Fatalf("loaded dtypes %v/%v, want F32", gotP.DType, gotC.DType)
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
