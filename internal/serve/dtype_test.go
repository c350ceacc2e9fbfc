package serve

import (
	"os"
	"path/filepath"
	"testing"
)

// TestNewRejectsUnknownDefaultDType: a default dtype the training stack
// cannot parse fails New before anything is created, instead of turning
// every later submission that omits dtype into a 400 that blames the
// client's field.
func TestNewRejectsUnknownDefaultDType(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	if s, err := New(Config{DataDir: dir, DefaultDType: "f16"}); err == nil {
		s.Close()
		t.Fatal("New accepted DefaultDType f16")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("New made the data directory before rejecting the config: %v", err)
	}
	s, err := New(Config{DataDir: dir, DefaultDType: "f32"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}
