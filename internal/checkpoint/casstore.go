package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"swtnas/internal/obs"
)

// ErrMissingBlob marks a manifest adoption that failed because the object it
// names is absent from the store (deleted by GC, or the object directory was
// removed). Callers distinguish it from corruption: a replayed candidate
// whose checkpoint was legitimately collected can be skipped, a hash mismatch
// cannot.
var ErrMissingBlob = errors.New("checkpoint: blob missing")

// ManifestStore is implemented by content-addressed stores that can name a
// stored checkpoint by manifest and re-register a manifest whose object they
// already hold. The resilience journal's evaluation records carry that
// manifest, and resume adopts it again.
type ManifestStore interface {
	Store
	// EncodedManifest returns the stored id's encoded manifest.
	EncodedManifest(id string) ([]byte, error)
	// AdoptManifest registers a manifest under id, verifying that the object
	// it names is present and hashes to it. A missing object surfaces as an
	// error wrapping ErrMissingBlob.
	AdoptManifest(id string, manifest []byte) error
	// DurableBlobs reports whether objects survive a process crash — the
	// precondition for journaling a search on this store.
	DurableBlobs() bool
}

// CASStats is a point-in-time snapshot of one store's accounting.
type CASStats struct {
	// Manifests is the number of stored candidate checkpoints, BlobsLive the
	// number of distinct objects they name (in memory, one per id).
	Manifests, BlobsLive int
	// RawBytes is what the saved SWTC streams measure; WrittenBytes is what
	// reached the backend for them (compressed objects plus manifests on
	// disk, the streams themselves in memory).
	RawBytes, WrittenBytes int64
}

// entry is one stored id. mf.size is always set; mf.hash and mf.dtype are set
// once hashed is — at once on disk, and in memory only when a manifest is
// asked for, so a store that cannot be journaled never hashes on its save path.
type entry struct {
	mf     Manifest
	hashed bool
	stream []byte // memory backend: the object itself, as it was handed over
}

// object is the disk backend's record of one object file.
type object struct {
	names    int  // ids naming it; the file goes with the last
	verified bool // its bytes were hashed in this process (written, adopted or loaded)
}

// CASStore is the checkpoint store: one object per candidate, its SWTC
// stream, content-addressed by the stream's hash. The memory backend keeps
// the stream under its id as it is; the disk backend keeps it once per
// distinct hash, as an element-aligned object (object.go), beside a small
// manifest file per id, so ids saved with bit-identical checkpoints share one
// object and a crash never leaves a manifest naming nothing.
type CASStore struct {
	disk *casDisk // nil for the memory backend

	mu      sync.Mutex
	ids     map[string]*entry
	objects map[Hash]*object // disk backend only
	stats   CASStats
}

// NewCASMemStore creates an in-memory store. It is the default store of a
// search run, the coordinator's store and a worker's per-task store.
func NewCASMemStore() *CASStore {
	return &CASStore{ids: map[string]*entry{}}
}

// NewCASDiskStore creates (or reopens) a store rooted at dir: manifests under
// dir/manifests, objects under dir/objects. Reopening reads the manifests
// only: an object file no manifest names (a crash between the two writes of
// a save) and stray temp files are ignored, and an object's hash is checked
// the first time it is read.
func NewCASDiskStore(dir string) (*CASStore, error) {
	d := &casDisk{dir: dir, objDir: filepath.Join(dir, "objects"), manDir: filepath.Join(dir, "manifests")}
	for _, sub := range []string{d.objDir, d.manDir} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("checkpoint: creating store dir: %w", err)
		}
	}
	s := &CASStore{disk: d, ids: map[string]*entry{}, objects: map[Hash]*object{}}
	files, err := os.ReadDir(d.manDir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reopening store: %w", err)
	}
	for _, f := range files {
		id, ok := strings.CutSuffix(f.Name(), manifestExt)
		if !ok {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(d.manDir, f.Name()))
		if err != nil {
			return nil, fmt.Errorf("checkpoint: reopening store: %w", err)
		}
		mf, err := DecodeManifest(raw)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: reopening store, manifest %q: %w", id, err)
		}
		if err := s.name(id, &entry{mf: *mf, hashed: true}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// DurableBlobs implements ManifestStore.
func (s *CASStore) DurableBlobs() bool { return s.disk != nil }

// name registers e under id on the disk backend, replacing what id named
// before. Callers hold s.mu (or own s exclusively).
func (s *CASStore) name(id string, e *entry) error {
	prev := s.ids[id]
	s.ids[id] = e
	obj := s.objects[e.mf.hash]
	if obj == nil {
		obj = &object{}
		s.objects[e.mf.hash] = obj
	}
	obj.names++
	if prev == nil {
		return nil
	}
	return s.unname(prev)
}

// unname drops one id's claim on its object and removes the object file with
// the last. Callers hold s.mu.
func (s *CASStore) unname(e *entry) error {
	obj := s.objects[e.mf.hash]
	if obj.names--; obj.names > 0 {
		return nil
	}
	delete(s.objects, e.mf.hash)
	if err := os.Remove(s.disk.objectPath(e.mf.hash)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Save implements Store. The returned size is the SWTC stream's length,
// whatever the backend then does to it, so trace CheckpointBytes means
// "checkpoint size" on every store.
func (s *CASStore) Save(id string, m *Model) (int64, error) {
	t := mStoreSaveSeconds.Start()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		return 0, err
	}
	if err := s.SaveEncoded(id, buf.Bytes()); err != nil {
		return 0, err
	}
	t.Stop()
	return int64(buf.Len()), nil
}

// SaveEncoded stores an encoded checkpoint stream under id as its object:
// the memory backend keeps the slice as it is, uncopied and undecoded. The
// distributed path saves the streams workers return with it.
func (s *CASStore) SaveEncoded(id string, stream []byte) error {
	e := &entry{mf: Manifest{size: int64(len(stream))}, stream: stream}
	if s.disk != nil {
		return s.putDisk(id, e)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ids[id] = e
	s.account(e.mf.size, e.mf.size, 1)
	return nil
}

// putDisk writes e's object, unless the store holds it already, and then
// id's manifest: a crash between the two can orphan an object but never
// leave a manifest naming nothing. Hashing and compression run outside the
// lock; only the file writes serialize evaluators.
func (s *CASStore) putDisk(id string, e *entry) error {
	if err := e.address(); err != nil {
		return err
	}
	enc, err := EncodeManifest(&e.mf)
	if err != nil {
		return err
	}
	packed, err := pack(e.stream)
	if err != nil {
		return err
	}
	e.stream = nil
	written, stored := int64(len(enc)), int64(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.objects[e.mf.hash] == nil {
		if err := writeFileDurable(s.disk.objectPath(e.mf.hash), packed); err != nil {
			return err
		}
		written, stored = written+int64(len(packed)), 1
	}
	if err := s.disk.writeManifest(id, enc); err != nil {
		return err // an object just written stays, an orphan like a crash's
	}
	if err := s.name(id, e); err != nil {
		return err
	}
	if stored == 1 {
		// Known good without a read: these are the bytes just hashed.
		s.objects[e.mf.hash].verified = true
	}
	s.account(e.mf.size, written, stored)
	return nil
}

// account records one save. Callers hold s.mu.
func (s *CASStore) account(raw, written, stored int64) {
	s.stats.RawBytes += raw
	s.stats.WrittenBytes += written
	if obs.Enabled() {
		mCASBlobsStored.Add(stored)
		mCASRawBytes.Add(raw)
		mCASWrittenBytes.Add(written)
		mCASBlobsLive.Set(int64(s.live()))
		mStoreSaveBytes.Add(written)
		mStoreSaveSize.Observe(float64(raw))
	}
}

// address fills in the entry's content hash and dtype from its stream.
func (e *entry) address() error {
	if e.hashed {
		return nil
	}
	dt, err := readHeader(bytes.NewReader(e.stream))
	if err != nil {
		return err
	}
	e.mf.hash, e.mf.dtype, e.hashed = HashBlob(e.stream), dt, true
	return nil
}

// live counts the distinct objects held. Callers hold s.mu.
func (s *CASStore) live() int {
	if s.disk == nil {
		return len(s.ids)
	}
	return len(s.objects)
}

// Load implements Store.
func (s *CASStore) Load(id string) (*Model, error) {
	t := mStoreLoadSeconds.Start()
	stream, err := s.LoadEncoded(id)
	if err != nil {
		mStoreMisses.Inc()
		return nil, err
	}
	m, err := Decode(bytes.NewReader(stream))
	if err != nil {
		mStoreMisses.Inc()
		return nil, fmt.Errorf("checkpoint: id %q: %w", id, err)
	}
	t.Stop()
	mStoreHits.Inc()
	return m, nil
}

// LoadEncoded returns id's SWTC stream: the memory backend's own slice (not
// a copy — streams are immutable once handed over), or the disk object
// unpacked and, the first time this process reads it, checked against its
// hash. The distributed path ships providers with it.
func (s *CASStore) LoadEncoded(id string) ([]byte, error) {
	s.mu.Lock()
	e := s.ids[id]
	if e == nil || s.disk == nil {
		s.mu.Unlock()
		if e == nil {
			return nil, idNotFound(id)
		}
		return e.stream, nil
	}
	// The file is read under the lock so an overwrite of id cannot remove it
	// first; inflating and hashing it are not.
	obj := s.objects[e.mf.hash]
	verify := !obj.verified
	packed, err := os.ReadFile(s.disk.objectPath(e.mf.hash))
	s.mu.Unlock()
	var stream []byte
	if err == nil {
		stream, err = unpack(&e.mf, packed, verify)
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: id %q: %w", id, err)
	}
	if verify {
		s.mu.Lock()
		obj.verified = true
		s.mu.Unlock()
	}
	return stream, nil
}

// Size implements Store, reporting what Save returned.
func (s *CASStore) Size(id string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.ids[id]
	if e == nil {
		return 0, idNotFound(id)
	}
	return e.mf.size, nil
}

// Delete implements Store: on disk the manifest file goes first, then the
// object if no other id names it.
func (s *CASStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.ids[id]
	if e == nil {
		return idNotFound(id)
	}
	if s.disk != nil {
		path, err := s.disk.manifestPath(id)
		if err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("checkpoint: id %q: %w", id, err)
		}
	}
	delete(s.ids, id)
	var err error
	if s.disk != nil {
		err = s.unname(e)
	}
	mCASBlobsLive.Set(int64(s.live()))
	return err
}

// List implements Store.
func (s *CASStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.ids))
	for id := range s.ids {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// EncodedManifest implements ManifestStore.
func (s *CASStore) EncodedManifest(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.ids[id]
	if e == nil {
		return nil, idNotFound(id)
	}
	if err := e.address(); err != nil {
		return nil, fmt.Errorf("checkpoint: id %q: %w", id, err)
	}
	return EncodeManifest(&e.mf)
}

// AdoptManifest implements ManifestStore: journal replay hands back a
// manifest and the store re-registers it against the object it already
// holds, verifying the object's content hash so resume is bit-identical or
// fails loudly. A manifest id already has on disk, byte for byte, is not
// written again.
func (s *CASStore) AdoptManifest(id string, manifest []byte) error {
	mf, err := DecodeManifest(manifest)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disk == nil {
		for _, e := range s.ids {
			if e.address() == nil && e.mf == *mf {
				s.ids[id] = e
				return nil
			}
		}
		return fmt.Errorf("%w: id %q (%s)", ErrMissingBlob, id, mf.hash)
	}
	if obj := s.objects[mf.hash]; obj == nil || !obj.verified {
		packed, err := os.ReadFile(s.disk.objectPath(mf.hash))
		if err != nil {
			return fmt.Errorf("%w: id %q (%s)", ErrMissingBlob, id, mf.hash)
		}
		if _, err := unpack(mf, packed, true); err != nil {
			return fmt.Errorf("checkpoint: adopting %q: %w", id, err)
		}
	}
	if prev := s.ids[id]; prev == nil || prev.mf != *mf {
		if err := s.disk.writeManifest(id, manifest); err != nil {
			return err
		}
		if err := s.name(id, &entry{mf: *mf, hashed: true}); err != nil {
			return err
		}
	}
	s.objects[mf.hash].verified = true
	mCASBlobsLive.Set(int64(s.live()))
	return nil
}

// Stats snapshots the store's accounting.
func (s *CASStore) Stats() CASStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Manifests, st.BlobsLive = len(s.ids), s.live()
	return st
}

// casDisk lays the store out as dir/manifests/<id>.swtm and
// dir/objects/<hex>.obj. Every write goes through temp file + fsync + rename
// so a crash never leaves a torn object or manifest, and journal records can
// rely on an object being durable once Save returns.
type casDisk struct {
	dir, objDir, manDir string
}

const manifestExt = ".swtm"

func (d *casDisk) objectPath(h Hash) string {
	return filepath.Join(d.objDir, h.String()+".obj")
}

func (d *casDisk) manifestPath(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return "", fmt.Errorf("checkpoint: invalid id %q", id)
	}
	return filepath.Join(d.manDir, id+manifestExt), nil
}

func (d *casDisk) writeManifest(id string, b []byte) error {
	path, err := d.manifestPath(id)
	if err != nil {
		return err
	}
	return writeFileDurable(path, b)
}

// writeFileDurable writes bytes via temp file + fsync + rename.
func writeFileDurable(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
