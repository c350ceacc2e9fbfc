package checkpoint

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"swtnas/internal/apps"
	"swtnas/internal/data"
)

// nt3Models builds n seeded nt3/f64 candidates, the way realModels builds
// one per app: the checkpoints a resume of an nt3 search re-adopts.
func nt3Models(tb testing.TB, n int) []*Model {
	app, err := apps.New("nt3", 1, apps.Config{Data: data.Config{TrainN: 8, ValN: 4}})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(95))
	out := make([]*Model, n)
	for i := range out {
		arch := app.Space.Random(rng)
		net, err := app.Space.Build(arch, rng)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = FromNetwork(arch, 0.5, net)
	}
	return out
}

// saveAll saves models[i] under ids[i] in a disk store at dir and returns
// their encoded manifests.
func saveAll(tb testing.TB, dir string, ids []string, models []*Model) [][]byte {
	s, err := NewCASDiskStore(dir)
	if err != nil {
		tb.Fatal(err)
	}
	mans := make([][]byte, len(ids))
	for i, id := range ids {
		if _, err := s.Save(id, models[i]); err != nil {
			tb.Fatal(err)
		}
		if mans[i], err = s.EncodedManifest(id); err != nil {
			tb.Fatal(err)
		}
	}
	return mans
}

// treeFiles reads every file under dir, keyed by its path relative to dir.
func treeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// copyStore copies the files of the store at src to dst.
func copyStore(t *testing.T, src, dst string) {
	t.Helper()
	for rel, b := range treeFiles(t, src) {
		path := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVerifyManifestsChangesNothingObservable: checking the manifests up
// front, on four goroutines, then adopting each gives, id by id, the error
// (or nil) that adopting alone gives on a fresh reopen of the same store,
// and leaves the same files and accounting — with two ids naming one
// object, a corrupt object, a missing one, one no manifest on disk names and
// a manifest that does not decode among them. Loads afterwards agree too.
func TestVerifyManifestsChangesNothingObservable(t *testing.T) {
	models := append(realModels(t), nt3Models(t, 4)...)
	ids := make([]string, len(models))
	for i := range ids {
		ids[i] = fmt.Sprintf("c%02d", i)
	}
	// c01 is saved again as "twin": two manifests naming one object.
	ids, models = append(ids, "twin"), append(models, models[1])
	src := t.TempDir()
	mans := saveAll(t, src, ids, models)
	objPath := func(man []byte) string { return objectFile(t, src, man) }
	// c02's object fails its CRC; c03's is gone.
	b, err := os.ReadFile(objPath(mans[2]))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-objectTail-1] ^= 0x10
	if err := os.WriteFile(objPath(mans[2]), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(objPath(mans[3])); err != nil {
		t.Fatal(err)
	}
	// "orphan" names an object file whose manifest never reached the disk.
	orphanDir := t.TempDir()
	orphan := saveAll(t, orphanDir, []string{"x"}, []*Model{mutate(casModel(7, 3), 1, 8)})[0]
	obj, err := os.ReadFile(objectFile(t, orphanDir, orphan))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objPath(orphan), obj, 0o644); err != nil {
		t.Fatal(err)
	}
	// "undecodable" carries a manifest of a retired version.
	retired := append([]byte(nil), mans[0]...)
	retired[4] = 1
	ids = append(ids, "orphan", "undecodable")
	mans = append(mans, orphan, retired)

	type outcome struct {
		adopt, load string
		files       map[string][]byte
		stats       CASStats
	}
	run := func(prePass bool) map[string]*outcome {
		dir := filepath.Join(t.TempDir(), "store")
		// An error's text, with the store's own directory named alike.
		errText := func(err error) string {
			if err == nil {
				return "<nil>"
			}
			return strings.ReplaceAll(err.Error(), dir, "<store>")
		}
		copyStore(t, src, dir)
		s, err := NewCASDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if prePass {
			s.VerifyManifests(mans, 4)
		}
		out := map[string]*outcome{}
		for i, id := range ids {
			out[id] = &outcome{adopt: errText(s.AdoptManifest(id, mans[i]))}
		}
		for _, id := range ids {
			_, err := s.LoadEncoded(id)
			out[id].load = errText(err)
		}
		out[""] = &outcome{files: treeFiles(t, dir), stats: s.Stats()}
		return out
	}
	want, got := run(false), run(true)
	for _, id := range ids {
		if got[id].adopt != want[id].adopt || got[id].load != want[id].load {
			t.Errorf("%s: with the pre-pass adopt %q, load %q; without it adopt %q, load %q",
				id, got[id].adopt, got[id].load, want[id].adopt, want[id].load)
		}
	}
	for _, id := range []string{"c02", "c03", "undecodable"} {
		if want[id].adopt == "<nil>" {
			t.Errorf("%s: adopting a damaged record succeeded", id)
		}
	}
	if got[""].stats != want[""].stats {
		t.Errorf("stats %+v with the pre-pass, %+v without", got[""].stats, want[""].stats)
	}
	gf, wf := got[""].files, want[""].files
	if len(gf) != len(wf) {
		t.Errorf("%d files with the pre-pass, %d without", len(gf), len(wf))
	}
	for rel, b := range wf {
		if !bytes.Equal(gf[rel], b) {
			t.Errorf("%s differs with the pre-pass", rel)
		}
	}
}

// objectFile is the path of the object man names in the disk store at dir.
func objectFile(t *testing.T, dir string, man []byte) string {
	t.Helper()
	mf, err := DecodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "objects", mf.hash.String()+".obj")
}

// TestVerifyManifestsReusesBuffers: one goroutine checking twelve nt3/f64
// objects allocates one set of buffers (file, coded section, stream) and the
// inflater, not a set per object — at most three of the largest stream plus
// 1 MiB.
func TestVerifyManifestsReusesBuffers(t *testing.T) {
	models := nt3Models(t, 12)
	ids := make([]string, len(models))
	for i := range ids {
		ids[i] = fmt.Sprintf("c%02d", i)
	}
	dir := t.TempDir()
	mans := saveAll(t, dir, ids, models)
	var largest int64
	for _, man := range mans {
		mf, err := DecodeManifest(man)
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, mf.size)
	}
	s, err := NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := allocated(func() { s.VerifyManifests(mans, 1) })
	t.Logf("checking %d objects of at most %d bytes allocated %d", len(mans), largest, got)
	if bound := 3*uint64(largest) + 1<<20; got > bound {
		t.Errorf("checking %d objects of at most %d bytes allocated %d, want at most %d", len(mans), largest, got, bound)
	}
	// Every object was checked: adopting them reads nothing.
	if err := os.RemoveAll(filepath.Join(dir, "objects")); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := s.AdoptManifest(id, mans[i]); err != nil {
			t.Fatalf("adopting %s after the pre-pass: %v", id, err)
		}
	}
}

// BenchmarkVerifyManifests is a resume's adoption of twelve nt3/f64
// candidates: reopen the store, check the manifests up front on GOMAXPROCS
// goroutines (set it with -cpu), then adopt each.
func BenchmarkVerifyManifests(b *testing.B) {
	models := nt3Models(b, 12)
	ids := make([]string, len(models))
	for i := range ids {
		ids[i] = fmt.Sprintf("c%02d", i)
	}
	dir := b.TempDir()
	mans := saveAll(b, dir, ids, models)
	var total int64
	for _, m := range models {
		stream, err := m.Encode()
		if err != nil {
			b.Fatal(err)
		}
		total += int64(len(stream))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewCASDiskStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		s.VerifyManifests(mans, runtime.GOMAXPROCS(0))
		for j, id := range ids {
			if err := s.AdoptManifest(id, mans[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
