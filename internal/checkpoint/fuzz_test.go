package checkpoint

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// fuzzSeeds adds a real artefact plus a truncated copy and bit-flipped
// copies (header and body) to the corpus.
func fuzzSeeds(f *testing.F, artefact []byte) {
	f.Add(artefact)
	f.Add(artefact[:len(artefact)/2])
	for _, at := range []int{5, 9, 13, 17, len(artefact) / 3} {
		flipped := append([]byte(nil), artefact...)
		flipped[at] ^= 0xFF
		f.Add(flipped)
	}
}

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what a decoder may allocate for an input of n bytes: a
// constant factor of the input plus the fixed-size read buffers.
func allocBound(n int) uint64 { return 64*uint64(n) + 8<<20 }

// saneShape reports a shape's element count, failing on a negative dimension
// or a product beyond maxElems.
func saneShape(t *testing.T, name string, shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			t.Fatalf("tensor %q: negative dim decoded: %v", name, shape)
		}
		if n *= d; n > maxElems {
			t.Fatalf("tensor %q: shape %v exceeds maxElems", name, shape)
		}
	}
	return n
}

// FuzzDecode hardens the SWTC parser: arbitrary input must either decode to
// a structurally sane model or fail with an error — never panic, never
// allocate out of proportion to the input. Run `go test -fuzz 'FuzzDecode$'
// ./internal/checkpoint` for a real fuzzing session; under plain `go test`
// the seed corpus runs.
func FuzzDecode(f *testing.F) {
	for _, m := range []*Model{FromNetwork([]int{1, 2, 3}, 0.5, sampleNet(90)), casModelF32(91, 3)} {
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		fuzzSeeds(f, buf.Bytes())
	}
	f.Add([]byte("SWTC"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var model *Model
		var err error
		if got := allocated(func() { model, err = Decode(bytes.NewReader(data)) }); got > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			if model != nil {
				t.Fatal("failed decode returned a partial model")
			}
			return
		}
		if !model.DType.Valid() {
			t.Fatalf("invalid dtype %d decoded", model.DType)
		}
		for _, g := range model.Groups {
			for _, tt := range g.Tensors {
				if n := saneShape(t, tt.Name, tt.Shape); n != len(tt.Data) {
					t.Fatalf("tensor %q: shape %v vs %d values", tt.Name, tt.Shape, len(tt.Data))
				}
			}
		}
	})
}

// FuzzDecodeManifest does the same for the SWTM parser. A manifest that
// decodes must describe blobs of a definite, non-negative size — the length
// CASStore's refcounts and Manifest.Resolve hold each blob to — and must
// survive its own re-encoding.
func FuzzDecodeManifest(f *testing.F) {
	for _, m := range []*Model{casModel(92, 3), casModelF32(93, 3)} {
		mf, _ := ManifestOf(m)
		enc, err := EncodeManifest(mf)
		if err != nil {
			f.Fatal(err)
		}
		fuzzSeeds(f, enc)
	}
	f.Add([]byte("SWTM"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var mf *Manifest
		var err error
		if got := allocated(func() { mf, err = DecodeManifest(data) }); got > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			if mf != nil {
				t.Fatal("failed decode returned a partial manifest")
			}
			return
		}
		if !mf.DType.Valid() {
			t.Fatalf("invalid dtype %d decoded", mf.DType)
		}
		var raw int64
		for _, g := range mf.Groups {
			for _, tt := range g.Tensors {
				raw += int64(mf.DType.Size() * saneShape(t, tt.Name, tt.Shape))
			}
		}
		if got := mf.RawBytes(); got != raw {
			t.Fatalf("RawBytes = %d, shapes imply %d", got, raw)
		}
		enc, err := EncodeManifest(mf)
		if err != nil {
			t.Fatalf("re-encoding a decoded manifest: %v", err)
		}
		again, err := DecodeManifest(enc)
		if err != nil || !reflect.DeepEqual(mf, again) {
			t.Fatalf("decoded manifest does not survive re-encoding: %v", err)
		}
	})
}
