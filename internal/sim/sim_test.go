package sim

import (
	"testing"
	"time"
)

func uniformTasks(n int, train time.Duration) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{TrainTime: train}
	}
	return tasks
}

func TestFSOpTime(t *testing.T) {
	fs := FSModel{WriteBandwidth: 1e6, ReadBandwidth: 1e6, PerOpLatency: 10 * time.Millisecond}
	got := fs.opTime(1e6, fs.WriteBandwidth)
	if got != 10*time.Millisecond+time.Second {
		t.Fatalf("opTime = %v", got)
	}
	zero := FSModel{PerOpLatency: 5 * time.Millisecond}
	if zero.opTime(100, 0) != 5*time.Millisecond {
		t.Fatal("zero bandwidth must cost only latency")
	}
}

func TestSimulateZeroDurationTasks(t *testing.T) {
	// Tasks with zero training time must drain without hanging and with a
	// zero makespan when nothing else costs time.
	res, err := SimulateFleet(FleetConfig{Evaluators: 4, Tasks: uniformTasks(64, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || res.TrainBusy != 0 {
		t.Fatalf("zero-duration makespan = %v trainBusy = %v, want 0", res.Makespan, res.TrainBusy)
	}
	// With a scheduler latency they serialize: 64 dispatches floor the run.
	res, err = SimulateFleet(FleetConfig{Evaluators: 4, Tasks: uniformTasks(64, 0), SchedulerLatency: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if want := 640 * time.Millisecond; res.Makespan != want {
		t.Fatalf("zero-duration scheduler floor = %v, want %v", res.Makespan, want)
	}
}

func TestFleetSingleEvaluatorSequential(t *testing.T) {
	res, err := SimulateFleet(FleetConfig{Evaluators: 1, Tasks: uniformTasks(10, time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 10*time.Second {
		t.Fatalf("single-evaluator makespan = %v, want 10s", res.Makespan)
	}
	if res.Attempts != 10 {
		t.Fatalf("attempts = %d, want 10", res.Attempts)
	}
}

func TestFleetValidation(t *testing.T) {
	if _, err := SimulateFleet(FleetConfig{Evaluators: 0, Tasks: uniformTasks(1, time.Second)}); err == nil {
		t.Fatal("zero evaluators must error")
	}
	if _, err := SimulateFleet(FleetConfig{Evaluators: 4}); err == nil {
		t.Fatal("no tasks must error")
	}
}

func TestFleetHeartbeatLoadInflatesDispatch(t *testing.T) {
	tasks := uniformTasks(256, 2*time.Second)
	mk := func(evaluators int) FleetResult {
		res, err := SimulateFleet(FleetConfig{
			Evaluators:       evaluators,
			Tasks:            tasks,
			SchedulerLatency: 10 * time.Millisecond,
			HeartbeatEvery:   time.Second,
			HeartbeatCost:    500 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small, big := mk(16), mk(1024)
	if small.CoordinatorLoad >= big.CoordinatorLoad {
		t.Fatalf("monitor load must grow with the fleet: %v vs %v", small.CoordinatorLoad, big.CoordinatorLoad)
	}
	if big.DispatchLatency <= small.DispatchLatency {
		t.Fatalf("dispatch latency must inflate under load: %v vs %v", small.DispatchLatency, big.DispatchLatency)
	}
	if big.QueueWaitP95 <= small.QueueWaitP95 {
		t.Fatalf("queue wait must blow up at scale: p95 %v vs %v", small.QueueWaitP95, big.QueueWaitP95)
	}
}

func TestFleetSpeculationBeatsStragglers(t *testing.T) {
	// Uniform 2 s tasks, two of them 20x stragglers. Without speculation
	// the stragglers gate the makespan; with it, backups on healthy
	// evaluators win.
	tasks := uniformTasks(64, 2*time.Second)
	tasks[5].SlowFactor = 20
	tasks[23].SlowFactor = 20
	cfg := FleetConfig{Evaluators: 8, Tasks: tasks}
	off, err := SimulateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Speculate = true
	on, err := SimulateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if off.Speculated != 0 || off.SpeculationWon != 0 {
		t.Fatalf("disabled run speculated: %+v", off)
	}
	if on.Speculated != 2 {
		t.Fatalf("speculated = %d, want 2", on.Speculated)
	}
	if on.SpeculationWon != 2 {
		t.Fatalf("speculation won = %d, want 2", on.SpeculationWon)
	}
	if on.Makespan >= off.Makespan {
		t.Fatalf("speculation did not help: on %v, off %v", on.Makespan, off.Makespan)
	}
	if on.Attempts != 66 {
		t.Fatalf("attempts = %d, want 64 tasks + 2 backups", on.Attempts)
	}
}

func TestFleetSpeculationNoopWithoutStragglers(t *testing.T) {
	// A uniform workload never crosses the 1.5x-of-p90 threshold, so
	// enabling speculation must not change the makespan.
	tasks := uniformTasks(64, 2*time.Second)
	off, err := SimulateFleet(FleetConfig{Evaluators: 8, Tasks: tasks})
	if err != nil {
		t.Fatal(err)
	}
	on, err := SimulateFleet(FleetConfig{
		Evaluators: 8,
		Tasks:      tasks,
		Speculate:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if on.Speculated != 0 {
		t.Fatalf("uniform workload speculated %d times", on.Speculated)
	}
	if on.Makespan != off.Makespan {
		t.Fatalf("speculation changed a straggler-free makespan: %v vs %v", on.Makespan, off.Makespan)
	}
}
