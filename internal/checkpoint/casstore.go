package checkpoint

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"swtnas/internal/obs"
)

// ErrMissingBlob marks a manifest resolution that failed because a
// referenced blob is absent from the store (deleted by GC, or the blob
// directory was removed). Callers distinguish it from corruption: a replayed
// candidate whose blobs were legitimately collected can be skipped, a hash
// mismatch cannot.
var ErrMissingBlob = errors.New("checkpoint: blob missing")

// ManifestStore is implemented by content-addressed stores that can expose a
// candidate checkpoint as a manifest (layer→hash table) and re-register a
// manifest whose blobs they already hold. The resilience journal's
// evaluation records carry that manifest, and resume resolves it again.
type ManifestStore interface {
	Store
	// EncodedManifest returns the stored id's encoded manifest.
	EncodedManifest(id string) ([]byte, error)
	// AdoptManifest registers a manifest under id, verifying that every
	// referenced blob is present with matching content hash. A missing blob
	// surfaces as an error wrapping ErrMissingBlob.
	AdoptManifest(id string, manifest []byte) error
	// DurableBlobs reports whether blobs survive a process crash — the
	// precondition for journaling a search on this store.
	DurableBlobs() bool
}

// casBackend persists blobs and manifests; CASStore layers refcounting,
// compression and metrics on top. Implementations need no internal locking:
// CASStore serializes all access.
type casBackend interface {
	writeBlob(h Hash, b []byte) error
	readBlob(h Hash) ([]byte, error)
	// removeBlob deletes the blob and returns the stored bytes reclaimed.
	removeBlob(h Hash) (int64, error)
	writeManifest(id string, b []byte) error
	readManifest(id string) ([]byte, error)
	removeManifest(id string) error
	listManifests() ([]string, error)
	durable() bool
}

// blobRef is the in-memory refcount entry for one stored blob.
type blobRef struct {
	count  int64
	raw    int64 // uncompressed bytes
	stored int64 // bytes on media (0 when unknown after reopen)
}

// CASStats is a point-in-time snapshot of one store's dedup accounting.
type CASStats struct {
	// Manifests is the number of stored candidate checkpoints.
	Manifests int
	// BlobsLive is the number of distinct blobs currently referenced.
	BlobsLive int
	// BlobsStored / BlobsDeduped split blob puts into first-time writes and
	// puts served by an existing identical blob.
	BlobsStored, BlobsDeduped int64
	// RawBytes is what full (non-deduplicated, uncompressed) checkpoint
	// writes would have cost; WrittenBytes is what was actually written.
	RawBytes, WrittenBytes int64
	// GCBlobs / GCBytes count blobs and stored bytes reclaimed when
	// refcounts reached zero.
	GCBlobs, GCBytes int64
}

// CASStore is a content-addressed checkpoint store: each tensor is stored
// once as a hash-addressed blob with a reference count, and each candidate
// checkpoint is a small manifest referencing its tensors by hash. Saving a
// candidate whose tensors are bit-identical to already-stored ones (the
// provider/receiver overlap selective weight transfer creates) writes only
// the new blobs; deleting a candidate releases its references and removes
// blobs whose count reaches zero.
type CASStore struct {
	backend  casBackend
	compress bool

	mu        sync.Mutex
	refs      map[Hash]*blobRef
	manifests map[string]*Manifest
	stats     CASStats
}

// NewCASMemStore creates an in-memory content-addressed store (blobs kept
// uncompressed). It is the default store of a search run.
func NewCASMemStore() *CASStore {
	return &CASStore{
		backend:   &casMemBackend{blobs: map[Hash][]byte{}, manifests: map[string][]byte{}},
		refs:      map[Hash]*blobRef{},
		manifests: map[string]*Manifest{},
	}
}

// NewCASDiskStore creates (or reopens) a content-addressed store rooted at
// dir: manifests under dir/manifests, gzip-compressed blobs under dir/blobs.
// Reopening scans the manifests and rebuilds the reference counts, so a
// crashed process resumes with consistent GC state.
func NewCASDiskStore(dir string) (*CASStore, error) {
	be, err := newCASDiskBackend(dir)
	if err != nil {
		return nil, err
	}
	s := &CASStore{
		backend:   be,
		compress:  true,
		refs:      map[Hash]*blobRef{},
		manifests: map[string]*Manifest{},
	}
	ids, err := be.listManifests()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		raw, err := be.readManifest(id)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: reopening store: %w", err)
		}
		mf, err := DecodeManifest(raw)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: reopening store, manifest %q: %w", id, err)
		}
		s.manifests[id] = mf
		s.retain(mf)
	}
	s.stats.Manifests = len(s.manifests)
	s.stats.BlobsLive = len(s.refs)
	return s, nil
}

// Dir returns the disk store's root directory ("" for the memory store).
func (s *CASStore) Dir() string {
	if be, ok := s.backend.(*casDiskBackend); ok {
		return be.dir
	}
	return ""
}

// DurableBlobs implements ManifestStore.
func (s *CASStore) DurableBlobs() bool { return s.backend.durable() }

// retain bumps the refcount of every blob the manifest references.
// Callers hold s.mu.
func (s *CASStore) retain(mf *Manifest) {
	for _, g := range mf.Groups {
		for _, t := range g.Tensors {
			ref := s.refs[t.Hash]
			if ref == nil {
				ref = &blobRef{raw: t.rawBytes(mf.DType)}
				s.refs[t.Hash] = ref
			}
			ref.count++
		}
	}
}

// release drops one reference per manifest entry and garbage-collects blobs
// whose count reaches zero. Callers hold s.mu.
func (s *CASStore) release(mf *Manifest) error {
	var firstErr error
	for _, g := range mf.Groups {
		for _, t := range g.Tensors {
			ref := s.refs[t.Hash]
			if ref == nil {
				continue
			}
			ref.count--
			if ref.count > 0 {
				continue
			}
			delete(s.refs, t.Hash)
			n, err := s.backend.removeBlob(t.Hash)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			s.stats.GCBlobs++
			s.stats.GCBytes += n
			mCASGCBlobs.Inc()
			mCASGCBytes.Add(n)
		}
	}
	s.stats.BlobsLive = len(s.refs)
	mCASBlobsLive.Set(int64(len(s.refs)))
	return firstErr
}

// shuffleBytes transposes a blob of width-byte little-endian values into
// byte-plane order: byte k of every value becomes contiguous. Raw float
// tensor bytes barely compress (the mantissa bytes are effectively random),
// but network weights share sign and a narrow exponent range, so once the
// high-order byte planes are grouped they collapse into long runs — the
// standard shuffle filter of scientific checkpoint compressors (Blosc,
// HDF5). The width is the manifest dtype's element size (8 for F64, 4 for
// F32 blobs). A trailing remainder (blobs are always width-aligned in
// practice) passes through unshuffled.
func shuffleBytes(b []byte, width int) []byte {
	n := len(b) / width
	out := make([]byte, len(b))
	for k := 0; k < width; k++ {
		plane := out[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			plane[i] = b[width*i+k]
		}
	}
	copy(out[width*n:], b[width*n:])
	return out
}

// unshuffleBytes is the inverse of shuffleBytes.
func unshuffleBytes(b []byte, width int) []byte {
	n := len(b) / width
	out := make([]byte, len(b))
	for k := 0; k < width; k++ {
		plane := b[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			out[width*i+k] = plane[i]
		}
	}
	copy(out[width*n:], b[width*n:])
	return out
}

// encodeBlob applies the store's at-rest encoding for disk stores:
// byte-plane shuffle (at the dtype's element width) + gzip.
func (s *CASStore) encodeBlob(raw []byte, width int) ([]byte, error) {
	if !s.compress {
		return raw, nil
	}
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(shuffleBytes(raw, width)); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeBlob undoes encodeBlob for the blob with hash h, which its manifest
// says is rawBytes long. The inflated stream is read into a buffer of
// exactly that size: a stream that ends early or runs past it is an error
// naming the blob, so a corrupt or hostile blob file costs at most the
// allocation an honest one would, and an honest one is never re-grown.
func (s *CASStore) decodeBlob(h Hash, stored []byte, rawBytes int64, width int) ([]byte, error) {
	if !s.compress {
		return stored, nil
	}
	// Deflate expands at most 1032:1, so a size the stored bytes cannot
	// reach is refused before it is allocated.
	if rawBytes > 1032*int64(len(stored)) {
		return nil, fmt.Errorf("checkpoint: blob %s: %d stored bytes cannot hold the %d its manifest names", h, len(stored), rawBytes)
	}
	zr, err := gzip.NewReader(bytes.NewReader(stored))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: blob %s: %w", h, err)
	}
	raw := make([]byte, rawBytes)
	if _, err := io.ReadFull(zr, raw); err != nil {
		return nil, fmt.Errorf("checkpoint: blob %s inflates to fewer than the %d bytes its manifest names: %w", h, rawBytes, err)
	}
	// The stream must end here; reaching its end is also what makes gzip
	// verify its checksum.
	switch _, err := io.ReadFull(zr, make([]byte, 1)); err {
	case io.EOF:
	case nil:
		return nil, fmt.Errorf("checkpoint: blob %s inflates past the %d bytes its manifest names", h, rawBytes)
	default:
		return nil, fmt.Errorf("checkpoint: blob %s: %w", h, err)
	}
	return unshuffleBytes(raw, width), nil
}

// Save implements Store: the model is split into manifest + blobs, new blobs
// are written once, shared blobs only gain a reference. The returned size is
// the checkpoint's logical (uncompressed, undeduplicated) encoding size, so
// trace CheckpointBytes keeps meaning "checkpoint size" across store kinds.
func (s *CASStore) Save(id string, m *Model) (int64, error) {
	t := mStoreSaveSeconds.Start()
	te := mEncodeSeconds.Start()
	mf, blobs := ManifestOf(m)
	enc, err := EncodeManifest(mf)
	if err != nil {
		return 0, err
	}
	te.Stop()
	raw := mf.RawBytes() + int64(len(enc))

	s.mu.Lock()
	defer s.mu.Unlock()
	var written int64
	var stored, deduped int64
	// Write new blobs before the manifest: a crash can orphan a blob but
	// never a manifest pointing at nothing.
	for h, blob := range blobs {
		if ref := s.refs[h]; ref != nil {
			deduped++
			continue
		}
		encBlob, err := s.encodeBlob(blob, mf.DType.Size())
		if err != nil {
			return 0, err
		}
		if err := s.backend.writeBlob(h, encBlob); err != nil {
			return 0, err
		}
		// Register at count 0; retain below adds the real references.
		s.refs[h] = &blobRef{raw: int64(len(blob)), stored: int64(len(encBlob))}
		written += int64(len(encBlob))
		stored++
	}
	if err := s.backend.writeManifest(id, enc); err != nil {
		return 0, err
	}
	written += int64(len(enc))
	prev := s.manifests[id]
	s.manifests[id] = mf
	s.retain(mf)
	if prev != nil {
		if err := s.release(prev); err != nil {
			return 0, err
		}
	}
	s.stats.Manifests = len(s.manifests)
	s.stats.BlobsLive = len(s.refs)
	s.stats.BlobsStored += stored
	s.stats.BlobsDeduped += deduped
	s.stats.RawBytes += raw
	s.stats.WrittenBytes += written
	t.Stop()
	if obs.Enabled() {
		mCASBlobsStored.Add(stored)
		mCASBlobsDeduped.Add(deduped)
		mCASRawBytes.Add(raw)
		mCASWrittenBytes.Add(written)
		mCASManifests.Inc()
		mCASBlobsLive.Set(int64(len(s.refs)))
		mStoreSaveBytes.Add(written)
		mStoreSaveSize.Observe(float64(raw))
		// The per-tensor blob encode is this store's codec work; count it
		// under the checkpoint codec series like Model.Encode would be.
		mEncodeCalls.Inc()
		mEncodeBytes.Add(raw)
	}
	return raw, nil
}

// Load implements Store: the manifest is resolved blob by blob into a model.
func (s *CASStore) Load(id string) (*Model, error) {
	t := mStoreLoadSeconds.Start()
	td := mDecodeSeconds.Start()
	s.mu.Lock()
	mf := s.manifests[id]
	if mf == nil {
		s.mu.Unlock()
		mStoreMisses.Inc()
		return nil, idNotFound(id)
	}
	m, err := mf.Resolve(func(h Hash) ([]byte, error) {
		stored, err := s.backend.readBlob(h)
		if err != nil {
			return nil, err
		}
		// Every blob of a held manifest has a ref, sized from that manifest.
		return s.decodeBlob(h, stored, s.refs[h].raw, mf.DType.Size())
	})
	s.mu.Unlock()
	if err != nil {
		mStoreMisses.Inc()
		return nil, fmt.Errorf("checkpoint: id %q: %w", id, err)
	}
	t.Stop()
	td.Stop()
	if obs.Enabled() {
		mStoreHits.Inc()
		mDecodeCalls.Inc()
		mDecodeBytes.Add(mf.RawBytes())
	}
	return m, nil
}

// Size implements Store, reporting the logical checkpoint size (manifest
// plus uncompressed blob bytes) for parity with Save's return value.
func (s *CASStore) Size(id string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mf := s.manifests[id]
	if mf == nil {
		return 0, idNotFound(id)
	}
	enc, err := EncodeManifest(mf)
	if err != nil {
		return 0, err
	}
	return mf.RawBytes() + int64(len(enc)), nil
}

// Delete implements Store: the manifest is removed and every referenced
// blob loses one reference; blobs reaching zero are garbage-collected.
func (s *CASStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mf := s.manifests[id]
	if mf == nil {
		return idNotFound(id)
	}
	if err := s.backend.removeManifest(id); err != nil {
		return err
	}
	delete(s.manifests, id)
	err := s.release(mf)
	s.stats.Manifests = len(s.manifests)
	return err
}

// List implements Store.
func (s *CASStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.manifests))
	for id := range s.manifests {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// EncodedManifest implements ManifestStore.
func (s *CASStore) EncodedManifest(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mf := s.manifests[id]
	if mf == nil {
		return nil, idNotFound(id)
	}
	return EncodeManifest(mf)
}

// AdoptManifest implements ManifestStore: journal replay hands back a
// manifest and the store re-registers it against blobs it already holds,
// verifying each blob's content hash so resume is bit-identical or fails
// loudly. Adopting over an existing id releases the old references.
func (s *CASStore) AdoptManifest(id string, manifest []byte) error {
	mf, err := DecodeManifest(manifest)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[Hash]bool{}
	for _, g := range mf.Groups {
		for _, t := range g.Tensors {
			if seen[t.Hash] {
				continue
			}
			seen[t.Hash] = true
			stored, err := s.backend.readBlob(t.Hash)
			if err != nil {
				return fmt.Errorf("%w: id %q tensor %q (%s)", ErrMissingBlob, id, t.Name, t.Hash)
			}
			raw, err := s.decodeBlob(t.Hash, stored, t.rawBytes(mf.DType), mf.DType.Size())
			if err != nil {
				return fmt.Errorf("checkpoint: adopting %q: %w", id, err)
			}
			if HashBlob(raw) != t.Hash {
				return fmt.Errorf("checkpoint: adopting %q, blob %s content does not match its hash", id, t.Hash)
			}
			if ref := s.refs[t.Hash]; ref == nil {
				s.refs[t.Hash] = &blobRef{raw: int64(len(raw)), stored: int64(len(stored))}
			}
		}
	}
	if err := s.backend.writeManifest(id, manifest); err != nil {
		return err
	}
	prev := s.manifests[id]
	s.manifests[id] = mf
	s.retain(mf)
	if prev != nil {
		if err := s.release(prev); err != nil {
			return err
		}
	}
	s.stats.Manifests = len(s.manifests)
	s.stats.BlobsLive = len(s.refs)
	mCASBlobsLive.Set(int64(len(s.refs)))
	return nil
}

// Stats snapshots the store's dedup accounting.
func (s *CASStore) Stats() CASStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// casMemBackend keeps blobs and manifests in maps.
type casMemBackend struct {
	blobs     map[Hash][]byte
	manifests map[string][]byte
}

func (b *casMemBackend) writeBlob(h Hash, blob []byte) error {
	b.blobs[h] = append([]byte(nil), blob...)
	return nil
}

func (b *casMemBackend) readBlob(h Hash) ([]byte, error) {
	blob, ok := b.blobs[h]
	if !ok {
		return nil, fmt.Errorf("checkpoint: blob %s not found", h)
	}
	return blob, nil
}

func (b *casMemBackend) removeBlob(h Hash) (int64, error) {
	n := int64(len(b.blobs[h]))
	delete(b.blobs, h)
	return n, nil
}

func (b *casMemBackend) writeManifest(id string, m []byte) error {
	b.manifests[id] = append([]byte(nil), m...)
	return nil
}

func (b *casMemBackend) readManifest(id string) ([]byte, error) {
	m, ok := b.manifests[id]
	if !ok {
		return nil, idNotFound(id)
	}
	return m, nil
}

func (b *casMemBackend) removeManifest(id string) error {
	delete(b.manifests, id)
	return nil
}

func (b *casMemBackend) listManifests() ([]string, error) {
	ids := make([]string, 0, len(b.manifests))
	for id := range b.manifests {
		ids = append(ids, id)
	}
	return ids, nil
}

func (b *casMemBackend) durable() bool { return false }

// casDiskBackend lays the store out as dir/manifests/<id>.swtm and
// dir/blobs/<hex>.blob. Writes go through temp file + fsync + rename so a
// crash never leaves a torn blob or manifest, and journal records can rely
// on blobs being durable once Save returns.
type casDiskBackend struct {
	dir, blobDir, manDir string
}

func newCASDiskBackend(dir string) (*casDiskBackend, error) {
	be := &casDiskBackend{
		dir:     dir,
		blobDir: filepath.Join(dir, "blobs"),
		manDir:  filepath.Join(dir, "manifests"),
	}
	for _, d := range []string{be.blobDir, be.manDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("checkpoint: creating store dir: %w", err)
		}
	}
	return be, nil
}

// writeFileDurable writes bytes via temp file + fsync + rename.
func writeFileDurable(dir, path string, b []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp*")
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

func (b *casDiskBackend) blobPath(h Hash) string {
	return filepath.Join(b.blobDir, h.String()+".blob")
}

func (b *casDiskBackend) manifestPath(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return "", fmt.Errorf("checkpoint: invalid id %q", id)
	}
	return filepath.Join(b.manDir, id+".swtm"), nil
}

func (b *casDiskBackend) writeBlob(h Hash, blob []byte) error {
	return writeFileDurable(b.blobDir, b.blobPath(h), blob)
}

func (b *casDiskBackend) readBlob(h Hash) ([]byte, error) {
	return os.ReadFile(b.blobPath(h))
}

func (b *casDiskBackend) removeBlob(h Hash) (int64, error) {
	p := b.blobPath(h)
	var n int64
	if info, err := os.Stat(p); err == nil {
		n = info.Size()
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return n, err
	}
	return n, nil
}

func (b *casDiskBackend) writeManifest(id string, m []byte) error {
	p, err := b.manifestPath(id)
	if err != nil {
		return err
	}
	return writeFileDurable(b.manDir, p, m)
}

func (b *casDiskBackend) readManifest(id string) ([]byte, error) {
	p, err := b.manifestPath(id)
	if err != nil {
		return nil, err
	}
	m, err := os.ReadFile(p)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: id %q: %w", id, err)
	}
	return m, nil
}

func (b *casDiskBackend) removeManifest(id string) error {
	p, err := b.manifestPath(id)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		return fmt.Errorf("checkpoint: id %q: %w", id, err)
	}
	return nil
}

func (b *casDiskBackend) listManifests() ([]string, error) {
	entries, err := os.ReadDir(b.manDir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".swtm") {
			ids = append(ids, strings.TrimSuffix(name, ".swtm"))
		}
	}
	sort.Strings(ids)
	return ids, nil
}

func (b *casDiskBackend) durable() bool { return true }
