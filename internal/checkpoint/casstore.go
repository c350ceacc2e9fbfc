package checkpoint

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"swtnas/internal/obs"
)

// ErrMissingBlob marks a manifest adoption that failed because the object it
// names is absent from the store (deleted by GC, or the object directory was
// removed). Callers distinguish it from corruption: a replayed candidate
// whose checkpoint was legitimately collected can be skipped, a hash mismatch
// cannot.
var ErrMissingBlob = errors.New("checkpoint: blob missing")

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
	verified bool // its bytes were hashed in this process (written, checked, adopted or loaded)
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
	// removals counts the object files unname has removed, so a check made
	// outside the lock can tell that the file it read may be gone.
	removals int
	stats    CASStats
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

// DurableBlobs reports whether objects survive a process crash (the disk
// backend): the precondition for journaling a search on this store.
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
	s.removals++
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
	stream, err := m.Encode()
	if err != nil {
		return 0, err
	}
	if err := s.SaveEncoded(id, stream); err != nil {
		return 0, err
	}
	t.Stop()
	return int64(len(stream)), nil
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
// lock, in a pooled packer; only the file writes serialize evaluators.
func (s *CASStore) putDisk(id string, e *entry) error {
	if err := e.address(); err != nil {
		return err
	}
	enc, err := EncodeManifest(&e.mf)
	if err != nil {
		return err
	}
	p := packers.Get().(*packer)
	defer packers.Put(p)
	head, tail, err := p.pack(e.stream)
	if err != nil {
		return err
	}
	e.stream = nil
	written, stored := int64(len(enc)), int64(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.objects[e.mf.hash] == nil {
		if err := writeFileDurable(s.disk.objectPath(e.mf.hash), head, tail); err != nil {
			return err
		}
		written, stored = written+int64(len(head)+len(tail)), 1
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

// address fills in the entry's content hash and dtype from its stream,
// which must parse whole.
func (e *entry) address() error {
	if e.hashed {
		return nil
	}
	dt, _, _, err := walk(e.stream, false, nil)
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

// Load implements Store. Its buffers are its own: pooled ones, kept live
// beside a training candidate, read a higher peak RSS for no CPU measured.
func (s *CASStore) Load(id string) (*Model, error) {
	t := mStoreLoadSeconds.Start()
	stream, err := s.LoadEncoded(id)
	if err != nil {
		mStoreMisses.Inc()
		return nil, err
	}
	m, err := Decode(stream)
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
	stream, err := s.loadUnlock(&e.mf, nil, true)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: id %q: %w", id, err)
	}
	return stream, nil
}

// readError is an object file that could not be read, as against one that
// was read and failed a check.
type readError struct{ error }

func (e readError) Unwrap() error { return e.error }

// loadUnlock reads the object mf names and, with keep set, returns its
// stream. The caller holds s.mu, so no overwrite or delete removes the file
// before it is read; the lock is then released, and the object is unpacked
// in buf (as for unpack) or, without keep, only checked (check). Unless
// this process verified it already, it is checked against mf's hash and
// marked verified. A file that cannot be read is a readError; one too large
// for its manifest fails a check, as a corrupt one does.
func (s *CASStore) loadUnlock(mf *Manifest, buf *objectBuffers, keep bool) ([]byte, error) {
	obj := s.objects[mf.hash]
	verify := obj == nil || !obj.verified
	if buf == nil {
		buf = new(objectBuffers)
	}
	packed, err := buf.readFile(s.disk.objectPath(mf.hash), mf)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var stream []byte
	if keep {
		stream, err = unpack(mf, packed, verify, buf)
	} else {
		verify, err = true, check(mf, packed, buf)
	}
	if err == nil && verify && obj != nil {
		s.mu.Lock()
		obj.verified = true
		s.mu.Unlock()
	}
	return stream, err
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

// EncodedManifest returns the stored id's encoded manifest, which the
// resilience journal's evaluation records carry.
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

// AdoptManifest registers a manifest under id: journal replay hands back a
// manifest and the store re-registers it against the object it already
// holds, verifying the object's content hash so resume is bit-identical or
// fails loudly. A missing object surfaces as an error wrapping
// ErrMissingBlob. A manifest id already has on disk, byte for byte, is not
// written again.
func (s *CASStore) AdoptManifest(id string, manifest []byte) error {
	mf, err := DecodeManifest(manifest)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.disk == nil {
		defer s.mu.Unlock()
		for _, e := range s.ids {
			if e.address() == nil && e.mf == *mf {
				s.ids[id] = e
				return nil
			}
		}
		return fmt.Errorf("%w: id %q (%s)", ErrMissingBlob, id, mf.hash)
	}
	// An object not verified yet is read and checked outside the lock, in
	// pooled buffers, and read again if an object file was removed meanwhile.
	for obj := s.objects[mf.hash]; obj == nil || !obj.verified; obj = s.objects[mf.hash] {
		removals := s.removals
		buf := readers.Get().(*objectBuffers)
		_, err := s.loadUnlock(mf, buf, false)
		readers.Put(buf)
		if err != nil {
			if errors.As(err, new(readError)) {
				return fmt.Errorf("%w: id %q (%s)", ErrMissingBlob, id, mf.hash)
			}
			return fmt.Errorf("checkpoint: adopting %q: %w", id, err)
		}
		s.mu.Lock()
		if s.removals == removals {
			break
		}
	}
	defer s.mu.Unlock()
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

// VerifyManifests checks, on at most workers goroutines, the objects the
// manifests name, so that adopting them afterwards need not. Every distinct
// object the manifests name that this process has not verified yet is read,
// unpacked and checked against the first manifest naming it, as adopting them
// in order would, and marked verified if it passes; adopting the manifests
// afterwards then only registers their ids. Goroutines claim objects one at a
// time and each keeps one set of buffers, taken from the pool reads share,
// from object to object. Nothing is reported and nothing on disk changes: a
// manifest that does not decode, an object that is missing or fails a check,
// and one no manifest on disk names stay as they were, for AdoptManifest to
// read and report at their own record. It returns once its goroutines have.
// On the memory backend it does nothing.
func (s *CASStore) VerifyManifests(manifests [][]byte, workers int) {
	if s.disk == nil {
		return
	}
	var todo []*Manifest
	seen := map[Hash]bool{}
	s.mu.Lock()
	for _, b := range manifests {
		mf, err := DecodeManifest(b)
		if err != nil || seen[mf.hash] {
			continue
		}
		seen[mf.hash] = true
		if obj := s.objects[mf.hash]; obj != nil && !obj.verified {
			todo = append(todo, mf)
		}
	}
	s.mu.Unlock()
	// Largest first: a goroutine's first object is its largest, so its
	// buffers are sized once, and the longest checks do not start last.
	slices.SortStableFunc(todo, func(a, b *Manifest) int { return cmp.Compare(b.size, a.size) })
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(todo)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := readers.Get().(*objectBuffers)
			defer readers.Put(buf)
			for i := next.Add(1) - 1; i < int64(len(todo)); i = next.Add(1) - 1 {
				s.mu.Lock()
				if obj := s.objects[todo[i].hash]; obj == nil || obj.verified {
					s.mu.Unlock()
					continue
				}
				s.loadUnlock(todo[i], buf, false) // a failure is AdoptManifest's to report
			}
		}()
	}
	wg.Wait()
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

// writeFileDurable writes the parts, in order, via temp file + fsync +
// rename.
func writeFileDurable(path string, parts ...[]byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	for _, b := range parts {
		if _, err := tmp.Write(b); err != nil {
			tmp.Close()
			return err
		}
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
