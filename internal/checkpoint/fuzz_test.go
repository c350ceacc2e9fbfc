package checkpoint

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"swtnas/internal/apps"
	"swtnas/internal/data"
	"swtnas/internal/nn"
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

// realManifests returns the encoded manifest of one untrained random
// candidate of each application at each dtype, as a store would journal it.
func realManifests(f *testing.F) [][]byte {
	var out [][]byte
	for _, name := range []string{"cifar10", "mnist", "nt3", "uno"} {
		app, err := apps.New(name, 1, apps.Config{Data: data.Config{TrainN: 8, ValN: 4}})
		if err != nil {
			f.Fatal(err)
		}
		rng := rand.New(rand.NewSource(94))
		arch := app.Space.Random(rng)
		net, err := app.Space.Build(arch, rng)
		if err != nil {
			f.Fatal(err)
		}
		net32, err := nn.ConvertNetwork[float32](net)
		if err != nil {
			f.Fatal(err)
		}
		for _, m := range []*Model{FromNetwork(arch, 0.5, net), FromNetworkOf(arch, 0.5, net32)} {
			enc, _ := manifestOf(f, m)
			out = append(out, enc)
		}
	}
	return out
}

// FuzzDecodeManifest does the same for the SWTM parser, seeded with real
// manifests of all four applications at both dtypes. A manifest that decodes
// must name an object of a definite, non-negative size at a valid dtype —
// what CASStore's bounded inflate holds the object to — and must be the
// bytes its own re-encoding gives.
func FuzzDecodeManifest(f *testing.F) {
	for _, enc := range realManifests(f) {
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
		if !mf.dtype.Valid() || mf.size < 0 {
			t.Fatalf("decoded an invalid manifest: %+v", *mf)
		}
		enc, err := EncodeManifest(mf)
		if err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("decoded manifest does not re-encode to its own bytes: %v", err)
		}
	})
}
