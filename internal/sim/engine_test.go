package sim

import (
	"testing"
	"time"
)

// ioTasks is uniformTasks with checkpoint traffic: every task writes ckpt
// bytes and, past the first eight, reads a parent of the same size.
func ioTasks(n int, train time.Duration, ckpt int64, loadParent bool) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{TrainTime: train, CheckpointBytes: ckpt, LoadParent: loadParent && i >= 8}
	}
	return tasks
}

func TestSimulateValidation(t *testing.T) {
	if _, err := SimulateFleet(FleetConfig{Evaluators: 0, Tasks: ioTasks(1, time.Second, 1, false)}); err == nil {
		t.Fatal("zero GPUs must error")
	}
	if _, err := SimulateFleet(FleetConfig{Evaluators: 4}); err == nil {
		t.Fatal("no tasks must error")
	}
}

func TestSimulateSingleGPUSequential(t *testing.T) {
	res, err := SimulateFleet(FleetConfig{
		Evaluators: 1,
		Tasks:      ioTasks(10, time.Second, 0, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 10*time.Second {
		t.Fatalf("makespan = %v, want 10s", res.Makespan)
	}
	if res.IOBusy != 0 {
		t.Fatalf("baseline without checkpoints must have no IO, got %v", res.IOBusy)
	}
}

func TestSimulatePerfectScalingWithoutIO(t *testing.T) {
	mk := func(gpus int) time.Duration {
		res, err := SimulateFleet(FleetConfig{Evaluators: gpus, Tasks: ioTasks(64, time.Second, 0, false)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if mk(8) != 8*time.Second || mk(16) != 4*time.Second || mk(32) != 2*time.Second {
		t.Fatalf("scaling = %v %v %v", mk(8), mk(16), mk(32))
	}
}

func TestSimulateCheckpointOverheadSmallForLongTraining(t *testing.T) {
	// CIFAR-like regime: training dominates I/O -> overhead fraction tiny
	// and scaling near-linear (paper Fig 10 left).
	run := func(gpus int) FleetResult {
		res, err := SimulateFleet(FleetConfig{
			Evaluators:       gpus,
			Tasks:            ioTasks(400, 30*time.Second, 200_000, true),
			WriteCheckpoints: true,
			MatchOverhead:    50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r8, r32 := run(8), run(32)
	if f := r32.OverheadFraction(); f > 0.05 {
		t.Fatalf("overhead fraction = %v, want < 5%%", f)
	}
	speedup := float64(r8.Makespan) / float64(r32.Makespan)
	if speedup < 3.5 {
		t.Fatalf("8->32 GPU speedup = %v, want near 4x", speedup)
	}
}

func TestSimulateNT3CheckpointBottleneck(t *testing.T) {
	// NT3 regime (paper Fig 10 right): training is short (~6s) while
	// checkpoints are large (~40MB); with a slow shared FS the run stops
	// scaling from 16 to 32 GPUs.
	fs := FSModel{WriteBandwidth: 50e6, ReadBandwidth: 50e6, PerOpLatency: 100 * time.Millisecond, Serialized: true}
	run := func(gpus int) time.Duration {
		res, err := SimulateFleet(FleetConfig{
			Evaluators:       gpus,
			Tasks:            ioTasks(400, 6*time.Second, 40_000_000, true),
			WriteCheckpoints: true,
			MatchOverhead:    100 * time.Millisecond,
			FS:               fs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	m8, m16, m32 := run(8), run(16), run(32)
	if !(m8 > m16) {
		t.Fatalf("8->16 should still improve: %v vs %v", m8, m16)
	}
	gain := float64(m16) / float64(m32)
	if gain > 1.5 {
		t.Fatalf("16->32 gain = %vx; the FS bottleneck should cap it below 1.5x", gain)
	}
}

func TestSimulateBaselineFasterThanTransferSchemes(t *testing.T) {
	// Same training times; the transfer scheme adds checkpoint I/O, so it
	// must take at least as long (paper: "our schemes have a constant time
	// overhead").
	tasks := ioTasks(100, 2*time.Second, 5_000_000, true)
	base, err := SimulateFleet(FleetConfig{Evaluators: 8, Tasks: tasks})
	if err != nil {
		t.Fatal(err)
	}
	lcs, err := SimulateFleet(FleetConfig{Evaluators: 8, Tasks: tasks, WriteCheckpoints: true, MatchOverhead: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if lcs.Makespan < base.Makespan {
		t.Fatalf("transfer scheme (%v) faster than baseline (%v)", lcs.Makespan, base.Makespan)
	}
}

func TestSimulateSchedulerLatencyFloors(t *testing.T) {
	// 64 tasks of 1s on 64 GPUs with a 0.5s serialized dispatch: the
	// last task cannot start before 64*0.5 = 32s.
	res, err := SimulateFleet(FleetConfig{
		Evaluators:       64,
		Tasks:            ioTasks(64, time.Second, 0, false),
		SchedulerLatency: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 32*time.Second {
		t.Fatalf("makespan = %v, want >= 32s dispatch floor", res.Makespan)
	}
	// Without dispatch latency the same workload takes ~1s.
	res2, err := SimulateFleet(FleetConfig{Evaluators: 64, Tasks: ioTasks(64, time.Second, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan != time.Second {
		t.Fatalf("makespan without dispatch latency = %v", res2.Makespan)
	}
}

func TestSimulateParallelFSNoContention(t *testing.T) {
	// In parallel mode each task pays its own I/O cost but tasks on
	// different GPUs do not queue: 8 identical tasks on 8 GPUs finish in
	// exactly read+train+write.
	fs := FSModel{WriteBandwidth: 10e6, ReadBandwidth: 10e6, PerOpLatency: 0, Serialized: false}
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{TrainTime: time.Second, CheckpointBytes: 10_000_000, LoadParent: true}
	}
	res, err := SimulateFleet(FleetConfig{Evaluators: 8, Tasks: tasks, WriteCheckpoints: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; res.Makespan != want { // 1s read + 1s train + 1s write
		t.Fatalf("makespan = %v, want %v", res.Makespan, want)
	}
	// The same workload on a serialized FS must be slower.
	fs.Serialized = true
	res2, err := SimulateFleet(FleetConfig{Evaluators: 8, Tasks: tasks, WriteCheckpoints: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan <= res.Makespan {
		t.Fatalf("serialized FS (%v) not slower than parallel (%v)", res2.Makespan, res.Makespan)
	}
}
