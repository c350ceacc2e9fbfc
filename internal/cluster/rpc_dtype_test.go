package cluster

import (
	"bytes"
	"testing"

	"swtnas/internal/checkpoint"
	"swtnas/internal/tensor"
)

// TestWorkerExecutesF32Task: a task shipped with DType "f32" must train in
// float32 and return an F32-tagged checkpoint, and the returned checkpoint
// must feed back into a child task as an inline parent through the f64
// transfer path (widened f32 weights are exact).
func TestWorkerExecutesF32Task(t *testing.T) {
	w := &Worker{ID: "w0"}
	task := RPCTask{
		ID: 1, App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Arch: []int{0, 0, 0, 0, 0, 0, 0, 0}, Seed: 5, DType: "f32",
	}
	res := w.Execute(task)
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	m, err := checkpoint.Decode(res.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if m.DType != tensor.F32 {
		t.Fatalf("checkpoint dtype %v, want F32", m.DType)
	}
	child := RPCTask{
		ID: 2, App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Arch: []int{0, 0, 0, 0, 0, 0, 0, 1}, Seed: 6, DType: "f32",
		Matcher: "LCS", Parent: res.Checkpoint,
	}
	cres := w.Execute(child)
	if cres.Err != "" {
		t.Fatal(cres.Err)
	}
	if cres.TransferCopied == 0 {
		t.Fatal("f32 parent checkpoint transferred no tensors")
	}
}

// TestWorkerDTypeDefaultAndRejection: a task that ships no dtype trains in
// f64, the default on both sides of the wire, byte for byte as the same task
// shipped with "f64"; an unknown dtype fails the task rather than silently
// training in f64.
func TestWorkerDTypeDefaultAndRejection(t *testing.T) {
	w := &Worker{ID: "w0"}
	task := RPCTask{
		ID: 1, App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Arch: []int{0, 0, 0, 0, 0, 0, 0, 0}, Seed: 5,
	}
	res := w.Execute(task)
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	m, err := checkpoint.Decode(res.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if m.DType != tensor.F64 {
		t.Fatalf("task with no dtype trained to a %v checkpoint, want F64", m.DType)
	}

	task.DType = "f64"
	explicit := w.Execute(task)
	if explicit.Err != "" {
		t.Fatal(explicit.Err)
	}
	if !bytes.Equal(res.Checkpoint, explicit.Checkpoint) {
		t.Fatal("a task with no dtype and the same task with \"f64\" return different checkpoints")
	}

	task.DType = "f16"
	if res := w.Execute(task); res.Err == "" {
		t.Fatal("unknown dtype must fail the task")
	}
}
