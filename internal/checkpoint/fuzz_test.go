package checkpoint

import (
	"bytes"
	"compress/gzip"
	"fmt"
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
// constant factor of the input plus a small constant. The decoders hold no
// fixed-size buffers.
func allocBound(n int) uint64 { return 64*uint64(n) + 64<<10 }

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
// allocate out of proportion to the input. A stream Decode accepts is one
// the disk backend stores: pack accepts it too, and unpack gives it back bit
// for bit. The seeds are two small models and a real candidate of every
// application at both dtypes, each with its truncated and bit-flipped
// copies. Run `go test -fuzz 'FuzzDecode$' ./internal/checkpoint` for a real
// fuzzing session; under plain `go test` the seed corpus runs.
func FuzzDecode(f *testing.F) {
	models := append([]*Model{FromNetwork([]int{1, 2, 3}, 0.5, sampleNet(90)), casModelF32(91, 3)}, realModels(f)...)
	for _, m := range models {
		stream, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		fuzzSeeds(f, stream)
	}
	f.Add([]byte("SWTC"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var model *Model
		var err error
		if got := allocated(func() { model, err = Decode(data) }); got > allocBound(len(data)) {
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
		obj, err := pack(data)
		if err != nil {
			t.Fatalf("pack refused a stream Decode accepts: %v", err)
		}
		mf := &Manifest{hash: HashBlob(data), size: int64(len(data)), dtype: model.DType}
		if back, err := unpack(mf, obj, true, nil); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("unpack(pack(stream)) is not the stream (err %v)", err)
		}
	})
}

// realModels returns one untrained random candidate of each application,
// built through apps.New, snapshotted at f64 and at f32: the checkpoints a
// search saves, in the order cifar10, mnist, nt3, uno with f64 before f32.
func realModels(tb testing.TB) []*Model {
	var out []*Model
	for _, name := range []string{"cifar10", "mnist", "nt3", "uno"} {
		app, err := apps.New(name, 1, apps.Config{Data: data.Config{TrainN: 8, ValN: 4}})
		if err != nil {
			tb.Fatal(err)
		}
		rng := rand.New(rand.NewSource(94))
		arch := app.Space.Random(rng)
		net, err := app.Space.Build(arch, rng)
		if err != nil {
			tb.Fatal(err)
		}
		net32, err := nn.ConvertNetwork[float32](net)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, FromNetwork(arch, 0.5, net), FromNetworkOf(arch, 0.5, net32))
	}
	return out
}

// realManifests returns the encoded manifest of each of realModels, as a
// store would journal it.
func realManifests(f *testing.F) [][]byte {
	var out [][]byte
	for _, m := range realModels(f) {
		enc, _ := manifestOf(f, m)
		out = append(out, enc)
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

// FuzzUnpack hardens the disk backend's object reader: a manifest and an
// object file, both arbitrary, must unpack to the stream the manifest names
// or fail with an error, and neither may allocate more than a constant factor
// of the size the manifest names — which the object's own size bounds, since
// a size its bytes cannot inflate to is refused before anything is
// allocated. The seeds are packed f64 and f32 objects with their manifests,
// their bit-flipped and truncated copies, and an object of the retired
// shuffle + gzip format. Unpacking in buffers another object used first —
// a set filled with junk before it, and a set drawn from the pool reads
// share after it held that object — gives the same stream or error, and
// check, which hashes the stream a piece at a time, the same error. Run `go test -fuzz FuzzUnpack
// ./internal/checkpoint` for a real fuzzing session; under plain `go test`
// the seed corpus runs.
func FuzzUnpack(f *testing.F) {
	prior := casModel(91, 4)
	priorStream, err := prior.Encode()
	if err != nil {
		f.Fatal(err)
	}
	priorObj, err := pack(priorStream)
	if err != nil {
		f.Fatal(err)
	}
	_, priorMF := manifestOf(f, prior)
	for _, m := range []*Model{FromNetwork([]int{1, 2, 3}, 0.5, sampleNet(92)), casModelF32(93, 3)} {
		buf, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		man, _ := manifestOf(f, m)
		obj, err := pack(buf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(man, obj)
		f.Add(man, obj[:len(obj)/2])
		for _, at := range []int{3, 5, 12, 20, len(obj) / 2, len(obj) - 10, len(obj) - 1} {
			flipped := append([]byte(nil), obj...)
			flipped[at] ^= 0xFF
			f.Add(man, flipped)
		}
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		if _, err := zw.Write(buf); err != nil {
			f.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(man, gz.Bytes())
	}

	f.Fuzz(func(t *testing.T, man, obj []byte) {
		mf, err := DecodeManifest(man)
		if err != nil {
			return
		}
		var stream []byte
		got := allocated(func() { stream, err = unpack(mf, obj, true, nil) })
		if got > 8*uint64(mf.size)+1<<20 {
			t.Fatalf("unpacking %d bytes for a %d-byte stream allocated %d (err %v)", len(obj), mf.size, got, err)
		}
		junk := func() []byte { return bytes.Repeat([]byte{0xA5}, 1<<16) }
		buf := &objectBuffers{plain: junk(), stream: junk()}
		if _, err := unpack(priorMF, priorObj, true, buf); err != nil {
			t.Fatal(err)
		}
		reused, reusedErr := unpack(mf, obj, true, buf)
		if fmt.Sprint(reusedErr) != fmt.Sprint(err) || !bytes.Equal(reused, stream) {
			t.Fatalf("unpack in used buffers gave %d bytes, err %v; in fresh ones %d bytes, err %v", len(reused), reusedErr, len(stream), err)
		}
		pooled := readers.Get().(*objectBuffers)
		if _, err := unpack(priorMF, priorObj, true, pooled); err != nil {
			t.Fatal(err)
		}
		readers.Put(pooled)
		pooled = readers.Get().(*objectBuffers)
		defer readers.Put(pooled)
		reused, reusedErr = unpack(mf, obj, true, pooled)
		if fmt.Sprint(reusedErr) != fmt.Sprint(err) || !bytes.Equal(reused, stream) {
			t.Fatalf("unpack in pooled buffers gave %d bytes, err %v; in fresh ones %d bytes, err %v", len(reused), reusedErr, len(stream), err)
		}
		if checkErr := check(mf, obj, pooled); fmt.Sprint(checkErr) != fmt.Sprint(err) {
			t.Fatalf("check gave err %v, unpack %v", checkErr, err)
		}
		if err != nil {
			if stream != nil {
				t.Fatal("failed unpack returned a stream")
			}
			return
		}
		if int64(len(stream)) != mf.size || HashBlob(stream) != mf.hash {
			t.Fatalf("unpack returned %d bytes that are not the stream the manifest names", len(stream))
		}
	})
}
