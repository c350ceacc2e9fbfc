package checkpoint

import (
	"bytes"
	"fmt"
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

func idNotFound(id string) error { return fmt.Errorf("checkpoint: id %q not found", id) }

// LoadEncoded returns the encoded checkpoint stream for id: from a CASStore
// the object itself (the memory backend's very bytes, not a copy — streams
// are immutable once handed over), otherwise by loading and encoding. The
// distributed path ships providers with it.
func LoadEncoded(s Store, id string) ([]byte, error) {
	if cs, ok := s.(*CASStore); ok {
		return cs.loadEncoded(id)
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

// SaveEncoded stores an encoded checkpoint stream under id: a CASStore keeps
// it as its object (the memory backend the slice as it is, uncopied and
// undecoded), any other store decodes and saves.
func SaveEncoded(s Store, id string, stream []byte) error {
	if cs, ok := s.(*CASStore); ok {
		return cs.put(id, stream)
	}
	m, err := Decode(bytes.NewReader(stream))
	if err != nil {
		return err
	}
	_, err = s.Save(id, m)
	return err
}
