package serve

import (
	"testing"

	"swtnas"
)

// setCandidateHook installs hook as candidateHook for the searches the test
// launches from now on, until it ends.
func setCandidateHook(t *testing.T, hook func(id string, c swtnas.Candidate)) {
	candidateHook = hook
	t.Cleanup(func() { candidateHook = nil })
}
