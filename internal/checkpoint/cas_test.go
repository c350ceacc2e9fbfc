package checkpoint

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"swtnas/internal/tensor"
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
	ab, err := a.Encode()
	if err != nil {
		return false
	}
	bb, err := b.Encode()
	return err == nil && bytes.Equal(ab, bb)
}

// manifestOf saves m into a fresh memory store and returns its manifest,
// encoded and decoded.
func manifestOf(t testing.TB, m *Model) ([]byte, *Manifest) {
	t.Helper()
	s := NewCASMemStore()
	if _, err := s.Save("m", m); err != nil {
		t.Fatal(err)
	}
	enc, err := s.EncodedManifest("m")
	if err != nil {
		t.Fatal(err)
	}
	mf, err := DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	return enc, mf
}

// TestManifestRoundTrip: a manifest names its object — the hash and length of
// the model's SWTC stream and the model's dtype — and survives its encoding.
func TestManifestRoundTrip(t *testing.T) {
	m := casModel(1, 3)
	stream, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	enc, mf := manifestOf(t, m)
	if want := (Manifest{hash: HashBlob(stream), size: int64(len(stream)), dtype: m.DType}); *mf != want {
		t.Fatalf("manifest = %+v, want %+v", *mf, want)
	}
	again, err := EncodeManifest(mf)
	if err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("re-encoded manifest differs (err %v)", err)
	}
}

// TestDecodeManifestRefusesOtherVersions: the tensor-tree manifests of
// earlier stores and journals (SWTM versions 1 and 2) are refused by version,
// never misread.
func TestDecodeManifestRefusesOtherVersions(t *testing.T) {
	enc, _ := manifestOf(t, casModel(1, 1))
	for _, ver := range []byte{1, 2, 4} {
		old := append([]byte(nil), enc...)
		old[4] = ver
		if _, err := DecodeManifest(old); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", ver)) {
			t.Errorf("version %d: err = %v, want one naming the version", ver, err)
		}
	}
	if _, err := DecodeManifest(append(enc, 0)); err == nil {
		t.Error("a manifest with trailing bytes must be refused")
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

// objectFiles lists the object files under a disk store's directory.
func objectFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestCASRefcountGC: the store counts the ids naming each object. Two ids
// saved with byte-identical models name one object — one file on disk — and
// deleting either keeps the other loadable; the object is collected with the
// last id that names it.
func TestCASRefcountGC(t *testing.T) {
	casStores(t, func(t *testing.T, s *CASStore) {
		m := casModel(4, 5)
		for _, id := range []string{"a", "b"} {
			if _, err := s.Save(id, casModel(4, 5)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Save("c", mutate(m, 2, 99)); err != nil {
			t.Fatal(err)
		}
		if s.disk != nil {
			if st := s.Stats(); st.BlobsLive != 2 || st.Manifests != 3 {
				t.Fatalf("stats = %+v, want 3 manifests naming 2 objects", st)
			}
			if files := objectFiles(t, s.disk.dir); len(files) != 2 {
				t.Fatalf("object dir holds %v, want 2 files", files)
			}
		}
		ma, _ := s.EncodedManifest("a")
		mb, _ := s.EncodedManifest("b")
		mc, _ := s.EncodedManifest("c")
		if !bytes.Equal(ma, mb) || bytes.Equal(ma, mc) {
			t.Fatal("identical models must share a manifest, different ones must not")
		}
		// A manifest adopted under a third id names the same object.
		if err := s.AdoptManifest("a2", ma); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"a", "a2"} {
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Load("b")
		if err != nil {
			t.Fatal(err)
		}
		if !modelsEqual(m, got) {
			t.Fatal("b corrupted by deleting a")
		}
		for _, id := range []string{"b", "c"} {
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Stats(); st.BlobsLive != 0 || st.Manifests != 0 {
			t.Fatalf("store not empty after deleting all: %+v", st)
		}
		if s.disk != nil {
			if files := objectFiles(t, s.disk.dir); len(files) != 0 {
				t.Fatalf("object dir still holds %v", files)
			}
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
		if st := s.Stats(); st.BlobsLive != 1 || st.Manifests != 1 {
			t.Fatalf("stats = %+v after overwrite, want one manifest, one object", st)
		}
		if s.disk != nil {
			if files := objectFiles(t, s.disk.dir); len(files) != 1 {
				t.Fatalf("object dir holds %v after overwrite, want 1 file", files)
			}
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

// TestCASDiskReopenRebuildsRefcounts: a reopened disk store must collect
// correctly — which ids name which object is rebuilt from the surviving
// manifests.
func TestCASDiskReopenRebuildsRefcounts(t *testing.T) {
	dir := t.TempDir()
	s, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	parent := casModel(8, 3)
	child := mutate(parent, 1, 13)
	for id, m := range map[string]*Model{"p": parent, "p2": parent, "c": child} {
		if _, err := s.Save(id, m); err != nil {
			t.Fatal(err)
		}
	}

	// "Crash" and reopen.
	s2, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().BlobsLive; got != 2 {
		t.Fatalf("reopened BlobsLive = %d, want 2", got)
	}
	ids, err := s2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("reopened List = %v", ids)
	}
	// The shared object survives its first name, not its second.
	for i, id := range []string{"p", "p2"} {
		if got, err := s2.Load("p2"); err != nil || !modelsEqual(parent, got) {
			t.Fatalf("p2 before deleting %s: err %v", id, err)
		}
		if err := s2.Delete(id); err != nil {
			t.Fatal(err)
		}
		if files := objectFiles(t, dir); len(files) != 2-i {
			t.Fatalf("after deleting %s the object dir holds %v, want %d files", id, files, 2-i)
		}
	}
	got, err := s2.Load("c")
	if err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(child, got) {
		t.Fatal("child did not survive reopen + parent GC")
	}
}

// TestCASCrashPointsOfASave: a save is two durable writes, the object and
// then the manifest, each through a temp file. A crash can leave a temp file,
// or an object no manifest names; a reopened store ignores both, saving the
// candidate again succeeds, and a clean run leaves no temp file behind.
func TestCASCrashPointsOfASave(t *testing.T) {
	dir := t.TempDir()
	s, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	kept, lost := casModel(20, 2), casModel(21, 2)
	if _, err := s.Save("kept", kept); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save("lost", lost); err != nil {
		t.Fatal(err)
	}
	_, mf := manifestOf(t, lost)
	// Crash after the object's rename, before the manifest's: the manifest
	// file never appeared and its temp file was left half-written, as was the
	// temp file of a third candidate's object.
	if err := os.Remove(filepath.Join(dir, "manifests", "lost.swtm")); err != nil {
		t.Fatal(err)
	}
	for _, tmp := range []string{"manifests/.tmp123", "objects/.tmp456"} {
		if err := os.WriteFile(filepath.Join(dir, tmp), []byte("SWTM torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatalf("reopening over a crashed save: %v", err)
	}
	if ids, _ := s2.List(); len(ids) != 1 || ids[0] != "kept" {
		t.Fatalf("reopened List = %v, want only the candidate whose manifest landed", ids)
	}
	if st := s2.Stats(); st.BlobsLive != 1 {
		t.Fatalf("reopened store counts %d objects, want 1 (the orphan is nobody's)", st.BlobsLive)
	}
	if _, err := s2.Load("lost"); err == nil {
		t.Fatal("a candidate without a manifest must not load")
	}
	if got, err := s2.Load("kept"); err != nil || !modelsEqual(kept, got) {
		t.Fatalf("the candidate saved before the crash: err %v", err)
	}
	// The resumed search evaluates the lost candidate again and saves the same
	// bytes over the orphan.
	if _, err := s2.Save("lost", lost); err != nil {
		t.Fatalf("re-saving over an orphaned object: %v", err)
	}
	if got, err := s2.Load("lost"); err != nil || !modelsEqual(lost, got) {
		t.Fatalf("the re-saved candidate: err %v", err)
	}
	if files := objectFiles(t, dir); len(files) != 3 { // two objects and the stray temp file
		t.Fatalf("object dir holds %v", files)
	}
	if _, err := os.Stat(filepath.Join(dir, "objects", mf.hash.String()+".obj")); err != nil {
		t.Fatalf("the re-saved object is not where its hash says: %v", err)
	}

	clean := t.TempDir()
	s3, err := NewCASDiskStore(clean)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s3.Save(fmt.Sprintf("c%d", i), casModel(int64(30+i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s3.Delete("c0"); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"objects", "manifests"} {
		entries, err := os.ReadDir(filepath.Join(clean, sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3 {
			t.Errorf("%s holds %d files after 4 saves and a delete, want 3", sub, len(entries))
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".tmp") {
				t.Errorf("%s/%s left behind by a clean run", sub, e.Name())
			}
		}
	}
}

// TestCASLoadVerifiesHashOnFirstRead: a store reopened without a journal
// adopts nothing, so the first Load of an object is what checks its bytes
// against its hash: one flipped byte that still inflates to the right length
// must fail that Load with an error naming the id and the hash.
func TestCASLoadVerifiesHashOnFirstRead(t *testing.T) {
	dir := t.TempDir()
	s, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := casModel(22, 3)
	if _, err := s.Save("a", m); err != nil {
		t.Fatal(err)
	}
	_, mf := manifestOf(t, m)
	// Rewrite the object with one payload byte changed, through the store's
	// own at-rest encoding so the object's CRC agrees with the tampered bytes.
	stream, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	tampered := stream
	tampered[len(tampered)-3] ^= 0x01
	packed, err := pack(tampered)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", mf.hash.String()+".obj")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, packed, 0o644); err != nil {
		t.Fatal(err)
	}
	// The store that wrote the object trusts the bytes it hashed...
	if _, err := s.Load("a"); err != nil {
		t.Fatalf("the writing process re-verified its own object: %v", err)
	}
	// ...a reopened one has verified nothing yet.
	s2, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s2.Load("a")
	if err == nil || !strings.Contains(err.Error(), `"a"`) || !strings.Contains(err.Error(), mf.hash.String()) {
		t.Fatalf("Load of a tampered object: err = %v, want one naming id \"a\" and hash %s", err, mf.hash)
	}
	// A flipped byte of the file itself is caught too (the CRC, inflate or the hash).
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xFF
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Load("a"); err == nil || !strings.Contains(err.Error(), mf.hash.String()) {
		t.Fatalf("Load of a bit-flipped object file: err = %v, want one naming %s", err, mf.hash)
	}
	// The honest bytes load, and are then trusted for the life of the store.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Load("a"); err != nil || !modelsEqual(m, got) {
		t.Fatalf("Load of the restored object: err %v", err)
	}
}

// TestCASLoadChecksEveryRead: an object once verified is not hashed again in
// the same process, so the object's own checksum is what catches a byte that
// changes on disk afterwards — every Load checks it, and the error names the
// id and the hash.
func TestCASLoadChecksEveryRead(t *testing.T) {
	dir := t.TempDir()
	m := casModel(23, 3)
	_, mf := manifestOf(t, m)
	path := filepath.Join(dir, "objects", mf.hash.String()+".obj")
	for _, at := range []func(n int) int{func(n int) int { return n / 2 }, func(n int) int { return n - 1 }} {
		s, err := NewCASDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Save("a", m); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Load("a"); err != nil || !modelsEqual(m, got) {
			t.Fatalf("Load of the saved object: err %v", err)
		}
		obj, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		i := at(len(obj))
		obj[i] ^= 0xFF
		if err := os.WriteFile(path, obj, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load("a"); err == nil || !strings.Contains(err.Error(), `"a"`) || !strings.Contains(err.Error(), mf.hash.String()) {
			t.Fatalf("Load after flipping byte %d of %d: err = %v, want one naming id \"a\" and hash %s", i, len(obj), err, mf.hash)
		}
		if err := s.Delete("a"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCASObjectDTypeMustMatchManifest: a manifest that names the right hash
// and size at the wrong dtype is refused when its object is read, although
// the stream itself is intact.
func TestCASObjectDTypeMustMatchManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := casModelF32(26, 2)
	if _, err := s.Save("a", m); err != nil {
		t.Fatal(err)
	}
	_, mf := manifestOf(t, m)
	mf.dtype = tensor.F64
	man, err := EncodeManifest(mf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifests", "a.swtm"), man, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, loadErr := s2.Load("a")
	adoptErr := s2.AdoptManifest("b", man)
	for op, err := range map[string]error{"Load": loadErr, "AdoptManifest": adoptErr} {
		if err == nil || !strings.Contains(err.Error(), "holds a f32 stream, its manifest names f64") || !strings.Contains(err.Error(), mf.hash.String()) {
			t.Errorf("%s of an f32 object under an f64 manifest: err = %v", op, err)
		}
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
	// id without rewriting the object.
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
	if files := objectFiles(t, dir); len(files) != 1 {
		t.Fatalf("object dir holds %v after adopting a second name, want 1 file", files)
	}
	// Adopting what an id already names is not a change.
	if err := s2.AdoptManifest("a", man); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Manifests != 2 || st.BlobsLive != 1 {
		t.Fatalf("stats = %+v, want 2 manifests naming 1 object", st)
	}

	// Destroying the object makes adoption fail with ErrMissingBlob.
	if err := os.Remove(filepath.Join(dir, "objects", objectFiles(t, dir)[0])); err != nil {
		t.Fatal(err)
	}
	s3, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = s3.AdoptManifest("c", man)
	if !errors.Is(err, ErrMissingBlob) {
		t.Fatalf("adopt with a missing object: %v, want ErrMissingBlob", err)
	}
}

func TestCASAdoptManifestRejectsCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Two candidates of one shape: their objects have the same length.
	if _, err := s.Save("a", casModel(10, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save("other", casModel(11, 2)); err != nil {
		t.Fatal(err)
	}
	man, err := s.EncodedManifest("a")
	if err != nil {
		t.Fatal(err)
	}
	mf, _ := DecodeManifest(man)
	// Swap one object's content for the other's: hash check must catch it.
	var src, dst string
	for _, name := range objectFiles(t, dir) {
		if path := filepath.Join(dir, "objects", name); name == mf.hash.String()+".obj" {
			dst = path
		} else {
			src = path
		}
	}
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
	if err == nil || errors.Is(err, ErrMissingBlob) || !strings.Contains(err.Error(), "does not match its hash") {
		t.Fatalf("adopt with corrupt object content: %v, want a hash-mismatch error", err)
	}
}

// rawObject frames an object file around the given sections, as pack does.
func rawObject(coded, verbatim []byte, crc uint32) []byte {
	obj := append([]byte(objectMagic), binary.LittleEndian.AppendUint64(nil, uint64(len(coded)))...)
	obj = append(append(obj, coded...), verbatim...)
	return binary.LittleEndian.AppendUint32(obj, crc)
}

// TestCASDecodeBoundedByManifestSize replaces a stored object with one whose
// coded section inflates to the wrong length, or its manifest with one
// naming a size the object cannot hold. Each must fail Load and
// AdoptManifest with an error naming the object, having allocated in
// proportion to the size named, not to what the coded section would expand
// to. One that runs past the size the manifest names (1 KiB of zeros, where
// the candidate is a few hundred bytes) or ends short is refused by its
// length; the BestCompression bomb of 32 MiB of zeros from 32 KiB, with a
// size that lets its file be read, by its length symbols, which pack never
// writes; and a size past the 8:1 a literal-only coded section can reach,
// even by one byte, before anything is allocated for it.
func TestCASDecodeBoundedByManifestSize(t *testing.T) {
	object := func(level int, plain []byte) []byte {
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(plain); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return rawObject(buf.Bytes(), nil, 0)
	}
	short := make([]byte, 200)
	rand.New(rand.NewSource(5)).Read(short)
	// overBound names one byte more than the stored object's sections hold.
	overBound := func(obj []byte) int64 {
		coded := len(codedSection(obj))
		return int64(len(obj)-objectHead-objectTail-coded) + 8*int64(coded) + 1
	}
	for _, c := range []struct {
		name   string
		stream []byte                 // replaces the object file when non-nil
		size   func(obj []byte) int64 // replaces the manifest's size when set
		want   string
	}{
		{"long", object(flate.HuffmanOnly, make([]byte, 1<<10)), nil, "inflates past"},
		{"short", object(flate.HuffmanOnly, short), nil, "inflates to fewer"},
		{"matched", object(flate.BestCompression, make([]byte, 32<<20)), func([]byte) int64 { return 64 << 10 }, "codes length symbols"},
		{"over_8x", nil, overBound, "cannot hold"},
		{"forged", nil, func([]byte) int64 { return 1 << 40 }, "cannot hold"},
		{"forged_64MiB", nil, func([]byte) int64 { return 64 << 20 }, "cannot hold"},
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
			h := mf.hash
			path := filepath.Join(dir, "objects", h.String()+".obj")
			if c.stream != nil {
				if err := os.WriteFile(path, c.stream, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if c.size != nil {
				obj, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				mf.size = c.size(obj)
				if man, err = EncodeManifest(mf); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "manifests", "a.swtm"), man, 0o644); err != nil {
					t.Fatal(err)
				}
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
					t.Errorf("%s over an object whose stream runs %s: err = %v, want one saying %q and naming %s", op, c.name, err, c.want, h)
				}
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("decoding a %d-byte object allocated %d bytes", mf.size, got)
			}
		})
	}
}

// TestCASRefusesOversizedObjectFile: an object file larger than pack makes
// of the size its manifest names — here made sparse at 1 GiB — is refused
// by its size before it is read. Load and AdoptManifest fail a check naming
// the object, as for a corrupt object, not a missing one (which a resume
// with GC on would skip), and allocate nothing for the file.
func TestCASRefusesOversizedObjectFile(t *testing.T) {
	dir := t.TempDir()
	s, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save("a", casModel(12, 2)); err != nil {
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
	if err := os.Truncate(filepath.Join(dir, "objects", mf.hash.String()+".obj"), 1<<30); err != nil {
		t.Fatal(err)
	}
	s2, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var loadErr, adoptErr error
	got := allocated(func() {
		_, loadErr = s2.Load("a")
		adoptErr = s2.AdoptManifest("b", man)
	})
	for op, err := range map[string]error{"Load": loadErr, "AdoptManifest": adoptErr} {
		if err == nil || !strings.Contains(err.Error(), "more than pack makes") || !strings.Contains(err.Error(), mf.hash.String()) || errors.Is(err, ErrMissingBlob) {
			t.Errorf("%s over a 1 GiB object file: err = %v, want a refusal of its size naming %s", op, err, mf.hash)
		}
	}
	if got > 1<<20 {
		t.Errorf("refusing a 1 GiB object file allocated %d bytes", got)
	}
}

func TestCASStoreImplementsInterfaces(t *testing.T) {
	var _ Store = (*CASStore)(nil)
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
