package cluster

import (
	"bytes"
	"testing"

	"swtnas/internal/checkpoint"
)

func TestWorkerHonorsPartialEpochsOverride(t *testing.T) {
	w := &Worker{ID: "w"}
	base := RPCTask{
		ID: 1, App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Arch: []int{0, 0, 0, 0, 0, 0, 0, 0}, Seed: 5,
	}
	one := base
	one.PartialEpochs = 1
	three := base
	three.PartialEpochs = 3
	r1 := w.Execute(one)
	r3 := w.Execute(three)
	if r1.Err != "" || r3.Err != "" {
		t.Fatalf("errs: %q %q", r1.Err, r3.Err)
	}
	if r3.TrainTime <= r1.TrainTime {
		t.Fatalf("3 epochs (%s) not slower than 1 (%s)", r3.TrainTime, r1.TrainTime)
	}
}

func TestWorkerTransfersFromInlineParent(t *testing.T) {
	w := &Worker{ID: "w"}
	arch := []int{0, 0, 0, 0, 0, 0, 0, 0}
	parentRes := w.Execute(RPCTask{
		ID: 1, App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Arch: arch, Seed: 5, PartialEpochs: 1,
	})
	if parentRes.Err != "" {
		t.Fatal(parentRes.Err)
	}
	child := w.Execute(RPCTask{
		ID: 2, App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Arch: arch, Seed: 6, Matcher: "LCS", Parent: parentRes.Checkpoint,
		PartialEpochs: 1,
	})
	if child.Err != "" {
		t.Fatal(child.Err)
	}
	// Same architecture: every layer group must be warm-started.
	m, err := checkpoint.Decode(bytes.NewReader(parentRes.Checkpoint))
	if err != nil {
		t.Fatal(err)
	}
	if child.TransferCopied != len(m.Groups) {
		t.Fatalf("copied %d of %d groups", child.TransferCopied, len(m.Groups))
	}
}
