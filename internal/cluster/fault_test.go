package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"swtnas/internal/nas"
	"swtnas/internal/trace"
)

// eventRecorder collects nas.FaultEvent values from FaultConfig.OnEvent for
// assertions; the callback runs from RPC and monitor goroutines concurrently.
type eventRecorder struct {
	mu     sync.Mutex
	events []nas.FaultEvent
}

func (r *eventRecorder) record(ev nas.FaultEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *eventRecorder) snapshot() []nas.FaultEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]nas.FaultEvent(nil), r.events...)
}

// queue is the tests' entry point to a coordinator: enqueue adds a task, and
// its one terminal result arrives on terminal.
func queue(c *Coordinator) (enqueue func(RPCTask), terminal <-chan RPCResult) {
	ch := make(chan RPCResult, 64)
	return func(t RPCTask) { c.enqueue(t, func(r RPCResult) { ch <- r }) }, ch
}

// await polls until an event satisfying pred arrives or the deadline passes.
func (r *eventRecorder) await(t *testing.T, what string, pred func(nas.FaultEvent) bool) nas.FaultEvent {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, ev := range r.snapshot() {
			if pred(ev) {
				return ev
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no %s event arrived; have %+v", what, r.snapshot())
	return nas.FaultEvent{}
}

// TestConcurrentRequeueUniqueResults hammers the coordinator's scheduling
// state directly (no TCP): many worker goroutines pull tasks and submit a
// mix of successes and errors concurrently while the monitor requeues, and
// every task must still resolve exactly once. Run under -race this pins the
// coordinator's locking discipline.
func TestConcurrentRequeueUniqueResults(t *testing.T) {
	c := NewCoordinatorWith(FaultConfig{
		HeartbeatTimeout: 2 * time.Second,
		MonitorInterval:  5 * time.Millisecond,
		RetryBackoff:     time.Millisecond,
		MaxAttempts:      4,
	})
	defer c.Shutdown()
	svc := &Service{c: c}
	enqueue, terminal := queue(c)

	const tasks = 100
	for i := 0; i < tasks; i++ {
		enqueue(RPCTask{ID: i})
	}

	// Collect terminal results concurrently with the workers.
	seen := map[int]int{}
	failed := 0
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for i := 0; i < tasks; i++ {
			res := <-terminal
			seen[res.ID]++
			if res.Failed {
				failed++
			}
		}
	}()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			n := 0
			for {
				var task RPCTask
				if err := svc.NextTask(id, &task); err != nil {
					t.Error(err)
					return
				}
				if task.Shutdown {
					return
				}
				n++
				var ack bool
				switch {
				case n%5 == 0:
					// Injected worker error: consumes an attempt, requeues.
					res := RPCResult{Record: trace.Record{ID: task.ID}, WorkerID: id, Err: "injected"}
					if err := svc.Submit(res, &ack); err != nil {
						t.Error(err)
						return
					}
				case n%7 == 0:
					// Lost result: submit nothing; the monitor's deadline
					// path is off here, so instead submit a late success
					// after a duplicate window to exercise dedup.
					res := RPCResult{Record: trace.Record{ID: task.ID, Score: 1}, WorkerID: id}
					go func() {
						time.Sleep(2 * time.Millisecond)
						var ack2 bool
						_ = svc.Submit(res, &ack2)
						_ = svc.Submit(res, &ack2) // duplicate on purpose
					}()
				default:
					res := RPCResult{Record: trace.Record{ID: task.ID, Score: 1}, WorkerID: id}
					if err := svc.Submit(res, &ack); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}

	select {
	case <-collected:
	case <-time.After(30 * time.Second):
		t.Fatal("terminal results did not all arrive")
	}
	c.Shutdown()
	wg.Wait()

	if len(seen) != tasks {
		t.Fatalf("distinct resolved tasks = %d, want %d", len(seen), tasks)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %d resolved %d times", id, n)
		}
	}
	t.Logf("terminal failures after retries: %d", failed)
}

// TestRequeueExhaustionSurfacesFailure drives one task through MaxAttempts
// worker errors and expects a coordinator-synthesized Failed result, not a
// hang or an extra retry.
func TestRequeueExhaustionSurfacesFailure(t *testing.T) {
	rec := &eventRecorder{}
	c := NewCoordinatorWith(FaultConfig{
		HeartbeatTimeout: 2 * time.Second,
		MonitorInterval:  2 * time.Millisecond,
		RetryBackoff:     time.Millisecond,
		MaxAttempts:      3,
		OnEvent:          rec.record,
	})
	defer c.Shutdown()
	svc := &Service{c: c}
	enqueue, terminal := queue(c)
	enqueue(RPCTask{ID: 7})

	for attempt := 1; attempt <= 3; attempt++ {
		var task RPCTask
		if err := svc.NextTask("w0", &task); err != nil {
			t.Fatal(err)
		}
		if task.ID != 7 {
			t.Fatalf("attempt %d got task %d", attempt, task.ID)
		}
		var ack bool
		if err := svc.Submit(RPCResult{Record: trace.Record{ID: 7}, WorkerID: "w0", Err: "boom"}, &ack); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case res := <-terminal:
		if !res.Failed {
			t.Fatalf("result = %+v, want Failed", res)
		}
		if res.Attempts != 3 {
			t.Fatalf("attempts = %d, want 3", res.Attempts)
		}
		if res.Err != "boom" {
			t.Fatalf("err = %q, want the last worker error", res.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no terminal result after retry exhaustion")
	}

	// The progress feed saw each retry decision and the terminal failure:
	// two requeues (attempts 1, 2) then a failed event (attempt 3).
	events := rec.snapshot()
	var kinds []nas.FaultKind
	for _, ev := range events {
		if ev.CandidateID != 7 {
			t.Fatalf("event for unexpected candidate: %+v", ev)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []nas.FaultKind{nas.FaultRequeue, nas.FaultRequeue, nas.FaultFailed}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("event kinds = %v, want %v (events %+v)", kinds, want, events)
	}
	if events[2].Attempt != 3 || events[2].Reason != "boom" {
		t.Fatalf("terminal event = %+v, want attempt 3 reason boom", events[2])
	}
}

// TestQuarantineAndReadmission silences a worker past the heartbeat timeout,
// checks its in-flight task requeues, then heartbeats again and checks the
// worker is served tasks once more.
func TestQuarantineAndReadmission(t *testing.T) {
	rec := &eventRecorder{}
	c := NewCoordinatorWith(FaultConfig{
		HeartbeatTimeout: 50 * time.Millisecond,
		MonitorInterval:  10 * time.Millisecond,
		RetryBackoff:     time.Millisecond,
		MaxAttempts:      3,
		OnEvent:          rec.record,
	})
	defer c.Shutdown()
	svc := &Service{c: c}
	enqueue, terminal := queue(c)
	enqueue(RPCTask{ID: 1})

	var task RPCTask
	if err := svc.NextTask("flaky", &task); err != nil {
		t.Fatal(err)
	}
	// Go silent: the monitor must quarantine "flaky" and requeue task 1;
	// a healthy worker parked in NextTask then receives it.
	got := make(chan RPCTask, 1)
	go func() {
		var tk RPCTask
		if err := svc.NextTask("healthy", &tk); err == nil {
			got <- tk
		}
	}()
	var requeued RPCTask
	select {
	case requeued = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("task was never requeued after heartbeat timeout")
	}
	if requeued.ID != 1 {
		t.Fatalf("requeued task = %d, want 1", requeued.ID)
	}
	var ack bool
	if err := svc.Submit(RPCResult{Record: trace.Record{ID: 1, Score: 2}, WorkerID: "healthy"}, &ack); err != nil {
		t.Fatal(err)
	}
	res := <-terminal
	if res.WorkerID != "healthy" || res.Failed {
		t.Fatalf("result = %+v, want success from the healthy worker", res)
	}

	// Re-admission: a heartbeat from the quarantined worker restores it.
	if err := svc.Heartbeat("flaky", &ack); err != nil {
		t.Fatal(err)
	}
	enqueue(RPCTask{ID: 2})
	if err := svc.NextTask("flaky", &task); err != nil {
		t.Fatal(err)
	}
	if task.ID != 2 {
		t.Fatalf("re-admitted worker got task %d, want 2", task.ID)
	}

	// The feed carries the full worker lifecycle: quarantine of "flaky"
	// (worker-scoped, candidate -1), the requeue of its in-flight task, and
	// the eventual readmission.
	// (A worker parked in NextTask can age past the timeout too and bounce
	// through quarantine/readmit, so match on "flaky" specifically.)
	q := rec.await(t, "quarantine", func(ev nas.FaultEvent) bool {
		return ev.Kind == nas.FaultQuarantine && ev.Worker == "flaky"
	})
	if q.CandidateID != -1 {
		t.Fatalf("quarantine event = %+v, want candidate -1", q)
	}
	rq := rec.await(t, "requeue", func(ev nas.FaultEvent) bool { return ev.Kind == nas.FaultRequeue })
	if rq.CandidateID != 1 {
		t.Fatalf("requeue event = %+v, want candidate 1", rq)
	}
	ra := rec.await(t, "readmit", func(ev nas.FaultEvent) bool {
		return ev.Kind == nas.FaultReadmit && ev.Worker == "flaky"
	})
	if ra.CandidateID != -1 {
		t.Fatalf("readmit event = %+v, want candidate -1", ra)
	}
}

// TestLateDuplicateSubmitIsDropped: a stalled worker's submit arriving after
// its task was requeued and completed elsewhere must not produce a second
// terminal result.
func TestLateDuplicateSubmitIsDropped(t *testing.T) {
	c := NewCoordinatorWith(FaultConfig{
		HeartbeatTimeout: time.Hour, // manual control; no monitor action
		MonitorInterval:  time.Hour,
		MaxAttempts:      3,
	})
	defer c.Shutdown()
	svc := &Service{c: c}
	enqueue, terminal := queue(c)
	enqueue(RPCTask{ID: 3})

	var task RPCTask
	if err := svc.NextTask("w0", &task); err != nil {
		t.Fatal(err)
	}
	var ack bool
	if err := svc.Submit(RPCResult{Record: trace.Record{ID: 3, Score: 1}, WorkerID: "w0"}, &ack); err != nil {
		t.Fatal(err)
	}
	// Late duplicate (e.g. a requeued copy finishing on another worker).
	if err := svc.Submit(RPCResult{Record: trace.Record{ID: 3, Score: 9}, WorkerID: "w1"}, &ack); err != nil {
		t.Fatal(err)
	}
	res := <-terminal
	if res.WorkerID != "w0" || res.Score != 1 {
		t.Fatalf("first result = %+v, want w0's", res)
	}
	select {
	case res := <-terminal:
		t.Fatalf("duplicate produced a second terminal result: %+v", res)
	case <-time.After(100 * time.Millisecond):
	}
}
