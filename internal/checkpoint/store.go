package checkpoint

import "fmt"

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
