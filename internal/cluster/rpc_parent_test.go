package cluster

import (
	"testing"

	"swtnas/internal/checkpoint"
)

func TestWorkerTransfersFromInlineParent(t *testing.T) {
	w := &Worker{ID: "w"}
	arch := []int{0, 0, 0, 0, 0, 0, 0, 0}
	parentRes := w.Execute(RPCTask{
		ID: 1, App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Arch: arch, Seed: 5,
	})
	if parentRes.Err != "" {
		t.Fatal(parentRes.Err)
	}
	child := w.Execute(RPCTask{
		ID: 2, App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Arch: arch, Seed: 6, Matcher: "LCS", Parent: parentRes.Checkpoint,
	})
	if child.Err != "" {
		t.Fatal(child.Err)
	}
	// Same architecture: every layer group must be warm-started.
	m, err := checkpoint.Decode(parentRes.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if child.TransferCopied != len(m.Groups) {
		t.Fatalf("copied %d of %d groups", child.TransferCopied, len(m.Groups))
	}
}
