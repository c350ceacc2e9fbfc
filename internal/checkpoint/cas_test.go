package checkpoint

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// casModel builds a small deterministic model; seed selects the tensor
// contents so tests can construct bit-identical and disjoint checkpoints.
func casModel(seed int64, layers int) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := &Model{Arch: []int{1, 2, 3}, Score: rng.Float64()}
	for l := 0; l < layers; l++ {
		g := Group{Layer: fmt.Sprintf("layer%d", l), Signature: []int{4, 3}}
		w := Tensor{Name: fmt.Sprintf("layer%d/w", l), Shape: []int{4, 3}, Data: make([]float64, 12)}
		b := Tensor{Name: fmt.Sprintf("layer%d/b", l), Shape: []int{3}, Data: make([]float64, 3)}
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		g.Tensors = append(g.Tensors, w, b)
		m.Groups = append(m.Groups, g)
	}
	return m
}

// mutate returns a copy of the model with one layer's tensors replaced by
// fresh data — the shape of a single-mutation child after training that
// checkpoint dedup exploits when tensors survive bit-identically.
func mutate(m *Model, layer int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	out := &Model{Arch: append([]int(nil), m.Arch...), Score: m.Score}
	for li, g := range m.Groups {
		cg := Group{Layer: g.Layer, Signature: append([]int(nil), g.Signature...)}
		for _, t := range g.Tensors {
			nt := Tensor{Name: t.Name, Shape: append([]int(nil), t.Shape...), Data: append([]float64(nil), t.Data...)}
			if li == layer {
				for i := range nt.Data {
					nt.Data[i] = rng.NormFloat64()
				}
			}
			cg.Tensors = append(cg.Tensors, nt)
		}
		out.Groups = append(out.Groups, cg)
	}
	return out
}

func modelsEqual(a, b *Model) bool {
	var ab, bb bytes.Buffer
	if err := a.Encode(&ab); err != nil {
		return false
	}
	if err := b.Encode(&bb); err != nil {
		return false
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}

func TestManifestRoundTrip(t *testing.T) {
	m := casModel(1, 3)
	mf, blobs := ManifestOf(m)
	enc, err := EncodeManifest(mf)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Resolve(func(h Hash) ([]byte, error) {
		b, ok := blobs[h]
		if !ok {
			return nil, fmt.Errorf("missing %s", h)
		}
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(m, got) {
		t.Fatal("manifest round trip is not bit-identical")
	}
}

func TestManifestResolveRejectsWrongBlob(t *testing.T) {
	m := casModel(2, 2)
	mf, blobs := ManifestOf(m)
	for h := range blobs {
		blobs[h] = blobs[h][:8] // truncate one blob
		break
	}
	if _, err := mf.Resolve(func(h Hash) ([]byte, error) { return blobs[h], nil }); err == nil {
		t.Fatal("resolving a truncated blob must fail")
	}
}

// casStores runs a subtest against both the memory and the disk backend.
func casStores(t *testing.T, fn func(t *testing.T, s *CASStore)) {
	t.Run("mem", func(t *testing.T) { fn(t, NewCASMemStore()) })
	t.Run("disk", func(t *testing.T) {
		s, err := NewCASDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, s)
	})
}

func TestCASSaveLoadRoundTrip(t *testing.T) {
	casStores(t, func(t *testing.T, s *CASStore) {
		m := casModel(3, 4)
		n, err := s.Save("a", m)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Fatalf("Save returned size %d", n)
		}
		got, err := s.Load("a")
		if err != nil {
			t.Fatal(err)
		}
		if !modelsEqual(m, got) {
			t.Fatal("CAS load is not bit-identical to the saved model")
		}
		sz, err := s.Size("a")
		if err != nil {
			t.Fatal(err)
		}
		if sz != n {
			t.Fatalf("Size %d != Save %d", sz, n)
		}
		if _, err := s.Load("missing"); err == nil {
			t.Fatal("loading a missing id must fail")
		}
	})
}

func TestCASDedupSharedTensors(t *testing.T) {
	casStores(t, func(t *testing.T, s *CASStore) {
		parent := casModel(4, 5)
		child := mutate(parent, 2, 99) // 4 of 5 layers bit-identical
		if _, err := s.Save("p", parent); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Save("c", child); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		// parent: 10 blobs stored; child: 2 new (mutated layer), 8 deduped.
		if st.BlobsStored != 12 {
			t.Fatalf("BlobsStored = %d, want 12", st.BlobsStored)
		}
		if st.BlobsDeduped != 8 {
			t.Fatalf("BlobsDeduped = %d, want 8", st.BlobsDeduped)
		}
		if st.WrittenBytes >= st.RawBytes {
			t.Fatalf("no dedup win: written %d >= raw %d", st.WrittenBytes, st.RawBytes)
		}
		// Both load back bit-identically despite sharing blobs.
		gp, err := s.Load("p")
		if err != nil {
			t.Fatal(err)
		}
		gc, err := s.Load("c")
		if err != nil {
			t.Fatal(err)
		}
		if !modelsEqual(parent, gp) || !modelsEqual(child, gc) {
			t.Fatal("shared-blob checkpoints did not round trip")
		}
	})
}

func TestCASRefcountGC(t *testing.T) {
	casStores(t, func(t *testing.T, s *CASStore) {
		parent := casModel(5, 3)
		child := mutate(parent, 0, 7)
		if _, err := s.Save("p", parent); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Save("c", child); err != nil {
			t.Fatal(err)
		}
		live := s.Stats().BlobsLive // 6 + 2 new
		if live != 8 {
			t.Fatalf("BlobsLive = %d, want 8", live)
		}
		// Deleting the parent releases only the blobs the child doesn't share.
		if err := s.Delete("p"); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.BlobsLive != 6 {
			t.Fatalf("after deleting parent BlobsLive = %d, want 6", st.BlobsLive)
		}
		if st.GCBlobs != 2 {
			t.Fatalf("GCBlobs = %d, want 2", st.GCBlobs)
		}
		// The child still loads: shared blobs survived the parent's GC.
		got, err := s.Load("c")
		if err != nil {
			t.Fatal(err)
		}
		if !modelsEqual(child, got) {
			t.Fatal("child corrupted by parent GC")
		}
		// Deleting the child empties the store.
		if err := s.Delete("c"); err != nil {
			t.Fatal(err)
		}
		st = s.Stats()
		if st.BlobsLive != 0 || st.Manifests != 0 {
			t.Fatalf("store not empty after deleting all: %+v", st)
		}
		if err := s.Delete("c"); err == nil {
			t.Fatal("double delete must fail")
		}
	})
}

func TestCASOverwriteReleasesOldBlobs(t *testing.T) {
	casStores(t, func(t *testing.T, s *CASStore) {
		a := casModel(6, 3)
		b := casModel(7, 3) // fully different content
		if _, err := s.Save("x", a); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Save("x", b); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.BlobsLive != 6 {
			t.Fatalf("BlobsLive = %d after overwrite, want 6", st.BlobsLive)
		}
		if st.GCBlobs != 6 {
			t.Fatalf("GCBlobs = %d after overwrite, want 6", st.GCBlobs)
		}
		got, err := s.Load("x")
		if err != nil {
			t.Fatal(err)
		}
		if !modelsEqual(b, got) {
			t.Fatal("overwrite did not take")
		}
	})
}

// TestCASDiskReopenRebuildsRefcounts: a reopened disk store must GC
// correctly — refcounts are rebuilt from the surviving manifests.
func TestCASDiskReopenRebuildsRefcounts(t *testing.T) {
	dir := t.TempDir()
	s, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	parent := casModel(8, 3)
	child := mutate(parent, 1, 13)
	if _, err := s.Save("p", parent); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save("c", child); err != nil {
		t.Fatal(err)
	}

	// "Crash" and reopen.
	s2, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().BlobsLive; got != 8 {
		t.Fatalf("reopened BlobsLive = %d, want 8", got)
	}
	ids, err := s2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("reopened List = %v", ids)
	}
	if err := s2.Delete("p"); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Load("c")
	if err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(child, got) {
		t.Fatal("child did not survive reopen + parent GC")
	}
	// Blobs of the deleted parent are gone from disk; shared ones remain.
	entries, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		t.Fatalf("blob dir holds %d files, want 6", len(entries))
	}
}

func TestCASAdoptManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := casModel(9, 3)
	if _, err := s.Save("a", m); err != nil {
		t.Fatal(err)
	}
	man, err := s.EncodedManifest("a")
	if err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory adopts the manifest under a new
	// id without rewriting any blob.
	s2, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AdoptManifest("b", man); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Load("b")
	if err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(m, got) {
		t.Fatal("adopted manifest did not resolve bit-identically")
	}

	// Destroying a blob makes adoption fail with ErrMissingBlob.
	entries, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "blobs", entries[0].Name())); err != nil {
		t.Fatal(err)
	}
	s3, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = s3.AdoptManifest("c", man)
	if !errors.Is(err, ErrMissingBlob) {
		t.Fatalf("adopt with a missing blob: %v, want ErrMissingBlob", err)
	}
}

func TestCASAdoptManifestRejectsCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := casModel(10, 2)
	if _, err := s.Save("a", m); err != nil {
		t.Fatal(err)
	}
	man, err := s.EncodedManifest("a")
	if err != nil {
		t.Fatal(err)
	}
	// Swap one blob's content for another's: hash check must catch it.
	entries, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatal("need at least two blobs")
	}
	src := filepath.Join(dir, "blobs", entries[0].Name())
	dst := filepath.Join(dir, "blobs", entries[1].Name())
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = s2.AdoptManifest("b", man)
	if err == nil || errors.Is(err, ErrMissingBlob) {
		t.Fatalf("adopt with corrupt blob content: %v, want a hash-mismatch error", err)
	}
}

// TestCASDecodeBoundedByManifestSize replaces a stored blob with a gzip
// stream of the wrong inflated length. One that runs past the size the
// manifest names — here 32 MiB of zeros behind a few KiB on disk, where the
// tensor is 96 bytes — must fail Load and AdoptManifest with an error
// naming the blob, having allocated in proportion to the 96 bytes, not the
// 32 MiB; one that ends short must fail the same way.
func TestCASDecodeBoundedByManifestSize(t *testing.T) {
	gz := func(n int) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, c := range []struct {
		name   string
		stream []byte
		want   string
	}{
		{"long", gz(32 << 20), "inflates past"},
		{"short", gz(8), "inflates to fewer"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewCASDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Save("a", casModel(10, 1)); err != nil {
				t.Fatal(err)
			}
			man, err := s.EncodedManifest("a")
			if err != nil {
				t.Fatal(err)
			}
			mf, err := DecodeManifest(man)
			if err != nil {
				t.Fatal(err)
			}
			h := mf.Groups[0].Tensors[0].Hash // the [4, 3] weight: 96 raw bytes
			if err := os.WriteFile(filepath.Join(dir, "blobs", h.String()+".blob"), c.stream, 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := NewCASDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, loadErr := s2.Load("a")
			adoptErr := s2.AdoptManifest("b", man)
			runtime.ReadMemStats(&after)
			for op, err := range map[string]error{"Load": loadErr, "AdoptManifest": adoptErr} {
				if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), h.String()) {
					t.Errorf("%s over a blob whose stream runs %s: err = %v, want one saying %q and naming %s", op, c.name, err, c.want, h)
				}
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("decoding a 96-byte tensor allocated %d bytes", got)
			}
		})
	}
}

func TestCASStoreImplementsInterfaces(t *testing.T) {
	var _ Store = (*CASStore)(nil)
	var _ ManifestStore = (*CASStore)(nil)
	if NewCASMemStore().DurableBlobs() {
		t.Fatal("mem store must not claim durable blobs")
	}
	s, err := NewCASDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !s.DurableBlobs() {
		t.Fatal("disk store must claim durable blobs")
	}
}
