package checkpoint

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
)

// Store persists candidate checkpoints under string ids. Implementations
// are safe for concurrent use by multiple evaluators.
type Store interface {
	// Save persists the model and returns its encoded size in bytes.
	Save(id string, m *Model) (int64, error)
	// Load retrieves a model by id.
	Load(id string) (*Model, error)
	// Size reports the encoded size of a stored model.
	Size(id string) (int64, error)
	// Delete removes a model; deleting a missing id is an error.
	Delete(id string) error
	// List returns the stored ids in lexical order.
	List() ([]string, error)
}

// MemStore keeps encoded checkpoints in memory, one SWTC stream per id. It
// encodes on Save and decodes on Load, so measured sizes are the stream's.
type MemStore struct {
	mu   sync.RWMutex
	blob map[string][]byte
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blob: map[string][]byte{}}
}

// Save implements Store.
func (s *MemStore) Save(id string, m *Model) (int64, error) {
	t := mStoreSaveSeconds.Start()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.blob[id] = buf.Bytes()
	s.mu.Unlock()
	t.Stop()
	mStoreSaveBytes.Add(int64(buf.Len()))
	mStoreSaveSize.Observe(float64(buf.Len()))
	return int64(buf.Len()), nil
}

// Load implements Store.
func (s *MemStore) Load(id string) (*Model, error) {
	t := mStoreLoadSeconds.Start()
	s.mu.RLock()
	b, ok := s.blob[id]
	s.mu.RUnlock()
	if !ok {
		mStoreMisses.Inc()
		return nil, fmt.Errorf("checkpoint: id %q not found", id)
	}
	m, err := Decode(bytes.NewReader(b))
	if err == nil {
		t.Stop()
		mStoreHits.Inc()
	}
	return m, err
}

// Size implements Store.
func (s *MemStore) Size(id string) (int64, error) {
	s.mu.RLock()
	b, ok := s.blob[id]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("checkpoint: id %q not found", id)
	}
	return int64(len(b)), nil
}

// Delete implements Store.
func (s *MemStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blob[id]; !ok {
		return fmt.Errorf("checkpoint: id %q not found", id)
	}
	delete(s.blob, id)
	return nil
}

// List implements Store.
func (s *MemStore) List() ([]string, error) {
	s.mu.RLock()
	ids := make([]string, 0, len(s.blob))
	for id := range s.blob {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	return ids, nil
}

// TotalBytes reports the summed size of all stored checkpoints.
func (s *MemStore) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, b := range s.blob {
		n += int64(len(b))
	}
	return n
}
