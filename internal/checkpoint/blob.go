package checkpoint

import (
	"bytes"
	"fmt"
	"os"
)

func idNotFound(id string) error { return fmt.Errorf("checkpoint: id %q not found", id) }

// BlobStore is implemented by stores that can expose and accept the encoded
// checkpoint stream directly, without a decode/re-encode round trip. The
// resilience journal uses it so journaled checkpoints are bit-identical to
// what the store holds. Blobs are immutable: neither side modifies a slice
// after handing it over, so an in-memory store shares it instead of copying.
type BlobStore interface {
	// LoadBlob returns the encoded bytes stored under id.
	LoadBlob(id string) ([]byte, error)
	// SaveBlob stores pre-encoded bytes under id and returns their length.
	SaveBlob(id string, blob []byte) (int64, error)
}

// LoadEncoded returns the encoded checkpoint bytes for id: directly when the
// store implements BlobStore, otherwise by loading and re-encoding (raw).
func LoadEncoded(s Store, id string) ([]byte, error) {
	if bs, ok := s.(BlobStore); ok {
		return bs.LoadBlob(id)
	}
	m, err := s.Load(id)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SaveEncoded stores pre-encoded checkpoint bytes under id: directly when
// the store implements BlobStore, otherwise by decoding and re-saving.
func SaveEncoded(s Store, id string, blob []byte) error {
	if bs, ok := s.(BlobStore); ok {
		_, err := bs.SaveBlob(id, blob)
		return err
	}
	m, err := Decode(bytes.NewReader(blob))
	if err != nil {
		return err
	}
	_, err = s.Save(id, m)
	return err
}

// LoadBlob implements BlobStore: it returns the stored bytes themselves.
func (s *MemStore) LoadBlob(id string) ([]byte, error) {
	s.mu.RLock()
	b, ok := s.blob[id]
	s.mu.RUnlock()
	if !ok {
		mStoreMisses.Inc()
		return nil, idNotFound(id)
	}
	mStoreHits.Inc()
	return b, nil
}

// SaveBlob implements BlobStore. The slice is kept as-is, not copied; it is
// assumed to be a valid encoded checkpoint.
func (s *MemStore) SaveBlob(id string, blob []byte) (int64, error) {
	s.mu.Lock()
	s.blob[id] = blob
	s.mu.Unlock()
	mStoreSaveBytes.Add(int64(len(blob)))
	mStoreSaveSize.Observe(float64(len(blob)))
	mStoreSaveSize.Observe(float64(len(blob)))
	return int64(len(blob)), nil
}

// LoadBlob implements BlobStore for the disk store.
func (s *DiskStore) LoadBlob(id string) ([]byte, error) {
	p, err := s.path(id)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(p)
	if err != nil {
		mStoreMisses.Inc()
		return nil, fmt.Errorf("checkpoint: id %q: %w", id, err)
	}
	mStoreHits.Inc()
	return b, nil
}

// SaveBlob implements BlobStore for the disk store, with the same temp-file
// + rename discipline as Save so a crash never leaves a torn checkpoint.
func (s *DiskStore) SaveBlob(id string, blob []byte) (int64, error) {
	p, err := s.path(id)
	if err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(s.dir, id+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return 0, err
	}
	mStoreSaveBytes.Add(int64(len(blob)))
	mStoreSaveSize.Observe(float64(len(blob)))
	return int64(len(blob)), nil
}
