package checkpoint

import (
	"bytes"
	"fmt"
)

func idNotFound(id string) error { return fmt.Errorf("checkpoint: id %q not found", id) }

// LoadEncoded returns the encoded checkpoint stream for id: the stored bytes
// themselves from a MemStore, otherwise by loading and encoding. The
// distributed path ships providers with it.
func LoadEncoded(s Store, id string) ([]byte, error) {
	if ms, ok := s.(*MemStore); ok {
		return ms.LoadBlob(id)
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

// SaveEncoded stores an encoded checkpoint stream under id: as it is in a
// MemStore, otherwise by decoding and saving.
func SaveEncoded(s Store, id string, blob []byte) error {
	if ms, ok := s.(*MemStore); ok {
		_, err := ms.SaveBlob(id, blob)
		return err
	}
	m, err := Decode(bytes.NewReader(blob))
	if err != nil {
		return err
	}
	_, err = s.Save(id, m)
	return err
}

// LoadBlob returns the encoded stream stored under id, not a copy. Streams
// are immutable: neither side modifies a slice after handing it over.
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

// SaveBlob stores a pre-encoded stream under id and returns its length. The
// slice is kept as-is, not copied; it is assumed to be a valid encoded
// checkpoint.
func (s *MemStore) SaveBlob(id string, blob []byte) (int64, error) {
	s.mu.Lock()
	s.blob[id] = blob
	s.mu.Unlock()
	mStoreSaveBytes.Add(int64(len(blob)))
	mStoreSaveSize.Observe(float64(len(blob)))
	return int64(len(blob)), nil
}
