package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swtnas/internal/nas"
	"swtnas/internal/trace"
)

// specCoordinator builds a coordinator with a fast monitor and speculation
// tuned for millisecond-scale tests.
func specCoordinator(rec *eventRecorder, quantile float64) *Coordinator {
	return NewCoordinatorWith(FaultConfig{
		HeartbeatTimeout:      10 * time.Second,
		MonitorInterval:       2 * time.Millisecond,
		RetryBackoff:          time.Millisecond,
		SpeculativeQuantile:   quantile,
		SpeculationFactor:     1.5,
		SpeculationMinSamples: 4,
		OnEvent:               rec.record,
	})
}

// warmLatencyWindow runs n quick tasks through worker id so the
// coordinator's latency window holds ~per-task duration samples.
func warmLatencyWindow(t *testing.T, svc *Service, id string, n int, dur time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		var task RPCTask
		if err := svc.NextTask(id, &task); err != nil {
			t.Fatal(err)
		}
		time.Sleep(dur)
		var ack bool
		if err := svc.Submit(RPCResult{Record: trace.Record{ID: task.ID, Score: 1}, WorkerID: id}, &ack); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpeculationFirstResultWins drives the coordinator directly: after a
// warm latency window, a straggling task must get a backup attempt
// (speculated event), the backup's result must win (speculation_won event),
// and the straggler's late submission must be dropped as a duplicate —
// exactly one terminal result per task.
func TestSpeculationFirstResultWins(t *testing.T) {
	rec := &eventRecorder{}
	c := specCoordinator(rec, 0.5)
	defer c.Shutdown()
	svc := &Service{c: c}
	enqueue, terminal := queue(c)

	const tasks = 5 // 4 warm-up + 1 straggler
	for i := 0; i < tasks; i++ {
		enqueue(RPCTask{ID: i})
	}
	results := make(map[int]int)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for i := 0; i < tasks; i++ {
			res := <-terminal
			results[res.ID]++
		}
	}()

	warmLatencyWindow(t, svc, "w0", 4, 15*time.Millisecond)

	// w0 takes the straggler and stalls; the monitor must launch a backup
	// once ~1.5x the median warm-up latency elapses.
	var straggler RPCTask
	if err := svc.NextTask("w0", &straggler); err != nil {
		t.Fatal(err)
	}
	ev := rec.await(t, "speculated", func(ev nas.FaultEvent) bool { return ev.Kind == nas.FaultSpeculate })
	if ev.CandidateID != straggler.ID || ev.Worker != "w0" {
		t.Fatalf("speculated event = %+v, want candidate %d on w0", ev, straggler.ID)
	}

	// A second worker picks up the backup copy of the same task and wins.
	var backup RPCTask
	if err := svc.NextTask("w1", &backup); err != nil {
		t.Fatal(err)
	}
	if backup.ID != straggler.ID {
		t.Fatalf("backup task = %d, want straggler %d", backup.ID, straggler.ID)
	}
	var ack bool
	if err := svc.Submit(RPCResult{Record: trace.Record{ID: backup.ID, Score: 2}, WorkerID: "w1"}, &ack); err != nil {
		t.Fatal(err)
	}
	won := rec.await(t, "speculation_won", func(ev nas.FaultEvent) bool { return ev.Kind == nas.FaultSpeculationWon })
	if won.CandidateID != backup.ID || won.Worker != "w1" {
		t.Fatalf("speculation_won event = %+v", won)
	}

	// The straggler finally finishes; its result must be scrubbed.
	if err := svc.Submit(RPCResult{Record: trace.Record{ID: straggler.ID, Score: 1}, WorkerID: "w0"}, &ack); err != nil {
		t.Fatal(err)
	}
	<-collected
	if len(results) != tasks {
		t.Fatalf("got %d distinct results, want %d: %v", len(results), tasks, results)
	}
	for id, n := range results {
		if n != 1 {
			t.Fatalf("task %d resolved %d times", id, n)
		}
	}
}

// TestSpeculationDisabledByDefault: with SpeculativeQuantile 0 (the zero
// FaultConfig), a straggler never triggers a backup.
func TestSpeculationDisabledByDefault(t *testing.T) {
	rec := &eventRecorder{}
	c := NewCoordinatorWith(FaultConfig{
		MonitorInterval: 2 * time.Millisecond,
		OnEvent:         rec.record,
	})
	defer c.Shutdown()
	svc := &Service{c: c}
	enqueue, terminal := queue(c)
	for i := 0; i < 5; i++ {
		enqueue(RPCTask{ID: i})
	}
	go func() {
		for i := 0; i < 5; i++ {
			<-terminal
		}
	}()
	warmLatencyWindow(t, svc, "w0", 4, 2*time.Millisecond)
	var straggler RPCTask
	if err := svc.NextTask("w0", &straggler); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // far past any would-be threshold
	for _, ev := range rec.snapshot() {
		if ev.Kind == nas.FaultSpeculate || ev.Kind == nas.FaultSpeculationWon {
			t.Fatalf("speculation event with quantile 0: %+v", ev)
		}
	}
	var ack bool
	if err := svc.Submit(RPCResult{Record: trace.Record{ID: straggler.ID, Score: 1}, WorkerID: "w0"}, &ack); err != nil {
		t.Fatal(err)
	}
}

// TestSpeculationFailedBackupIsDropped: a backup that errors is discarded
// without consuming the original's retry budget, and the original's
// eventual success still resolves the task.
func TestSpeculationFailedBackupIsDropped(t *testing.T) {
	rec := &eventRecorder{}
	c := specCoordinator(rec, 0.5)
	defer c.Shutdown()
	svc := &Service{c: c}
	enqueue, terminal := queue(c)
	const tasks = 5
	for i := 0; i < tasks; i++ {
		enqueue(RPCTask{ID: i})
	}
	results := make(map[int]*RPCResult)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for i := 0; i < tasks; i++ {
			res := <-terminal
			results[res.ID] = &res
		}
	}()
	warmLatencyWindow(t, svc, "w0", 4, 15*time.Millisecond)
	var straggler RPCTask
	if err := svc.NextTask("w0", &straggler); err != nil {
		t.Fatal(err)
	}
	rec.await(t, "speculated", func(ev nas.FaultEvent) bool { return ev.Kind == nas.FaultSpeculate })
	var backup RPCTask
	if err := svc.NextTask("w1", &backup); err != nil {
		t.Fatal(err)
	}
	var ack bool
	if err := svc.Submit(RPCResult{Record: trace.Record{ID: backup.ID}, WorkerID: "w1", Err: "injected backup failure"}, &ack); err != nil {
		t.Fatal(err)
	}
	// No requeue may result from the backup's failure.
	time.Sleep(20 * time.Millisecond)
	for _, ev := range rec.snapshot() {
		if ev.Kind == nas.FaultRequeue {
			t.Fatalf("backup failure consumed the retry budget: %+v", ev)
		}
	}
	if err := svc.Submit(RPCResult{Record: trace.Record{ID: straggler.ID, Score: 3}, WorkerID: "w0"}, &ack); err != nil {
		t.Fatal(err)
	}
	<-collected
	res := results[straggler.ID]
	if res == nil || res.Failed || res.Score != 3 {
		t.Fatalf("straggler result = %+v, want original success", res)
	}
}

// runStragglerWorkload runs `tasks` tasks over `workers` svc-driven worker
// goroutines where task 3's first attempt stalls for stallDur; every other
// execution takes baseDur. It returns the wall-clock makespan and the
// per-ID terminal result counts.
func runStragglerWorkload(t *testing.T, c *Coordinator, workers, tasks int, baseDur, stallDur time.Duration) (time.Duration, map[int]int) {
	t.Helper()
	svc := &Service{c: c}
	enqueue, terminal := queue(c)
	for i := 0; i < tasks; i++ {
		enqueue(RPCTask{ID: i})
	}
	start := time.Now()
	var makespan time.Duration
	results := make(map[int]int)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for i := 0; i < tasks; i++ {
			res := <-terminal
			results[res.ID]++
			if res.Failed {
				t.Errorf("task %d failed: %s", res.ID, res.Err)
			}
		}
		makespan = time.Since(start)
	}()
	var stalled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			for {
				var task RPCTask
				if err := svc.NextTask(id, &task); err != nil {
					t.Error(err)
					return
				}
				if task.Shutdown {
					return
				}
				dur := baseDur
				if task.ID == 3 && stalled.CompareAndSwap(false, true) {
					dur = stallDur // first attempt of task 3 stalls
				}
				time.Sleep(dur)
				var ack bool
				if err := svc.Submit(RPCResult{Record: trace.Record{ID: task.ID, Score: 1}, WorkerID: id}, &ack); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	<-collected
	c.Shutdown()
	wg.Wait()
	return makespan, results
}

// TestSpeculationBeatsDeadlineFailoverOnStragglers compares the two
// straggler defenses end to end: deadline-only failover waits out the full
// TaskDeadline before retrying, while speculation launches a backup as soon
// as the latency window flags the task — so its makespan must be shorter,
// with zero duplicate results either way.
func TestSpeculationBeatsDeadlineFailoverOnStragglers(t *testing.T) {
	const (
		workers  = 3
		tasks    = 16
		baseDur  = 10 * time.Millisecond
		stallDur = 1200 * time.Millisecond
		deadline = 800 * time.Millisecond
	)
	deadlineOnly := NewCoordinatorWith(FaultConfig{
		TaskDeadline:    deadline,
		MonitorInterval: 2 * time.Millisecond,
		RetryBackoff:    time.Millisecond,
	})
	deadlineMakespan, deadlineResults := runStragglerWorkload(t, deadlineOnly, workers, tasks, baseDur, stallDur)

	rec := &eventRecorder{}
	speculative := specCoordinator(rec, 0.5)
	specMakespan, specResults := runStragglerWorkload(t, speculative, workers, tasks, baseDur, stallDur)

	for name, results := range map[string]map[int]int{"deadline": deadlineResults, "speculation": specResults} {
		if len(results) != tasks {
			t.Fatalf("%s: %d distinct results, want %d", name, len(results), tasks)
		}
		for id, n := range results {
			if n != 1 {
				t.Fatalf("%s: task %d resolved %d times", name, id, n)
			}
		}
	}
	rec.await(t, "speculated", func(ev nas.FaultEvent) bool { return ev.Kind == nas.FaultSpeculate })
	if specMakespan >= deadlineMakespan {
		t.Fatalf("speculation (%v) did not beat deadline failover (%v)", specMakespan, deadlineMakespan)
	}
}
