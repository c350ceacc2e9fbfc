package cluster

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"swtnas/internal/obs"
	"swtnas/internal/trace"
)

// counting turns metrics on for the rest of the test and returns how far a
// counter has moved since the call.
func counting(t *testing.T) func(name string) int64 {
	was := obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(was) })
	before := obs.Take()
	return func(name string) int64 { return obs.GetCounter(name).Value() - before.Counters[name] }
}

// queue is the tests' entry point to a coordinator: enqueue adds a task, and
// its one terminal result arrives on terminal.
func queue(c *Coordinator) (enqueue func(RPCTask), terminal <-chan RPCResult) {
	ch := make(chan RPCResult, 64)
	return func(t RPCTask) { c.enqueue(t, func(r RPCResult) { ch <- r }) }, ch
}

// TestConcurrentRequeueUniqueResults hammers the coordinator's scheduling
// state directly (no TCP): many worker goroutines pull tasks and submit a
// mix of successes and errors concurrently while the coordinator requeues, and
// every task must still resolve exactly once. Run under -race this pins the
// coordinator's locking discipline.
func TestConcurrentRequeueUniqueResults(t *testing.T) {
	c := NewCoordinatorWith(FaultConfig{
		HeartbeatTimeout: 2 * time.Second,
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
					// A late success after a duplicate window, submitted
					// twice to exercise dedup.
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
	moved := counting(t)
	c := NewCoordinatorWith(FaultConfig{
		HeartbeatTimeout: 2 * time.Second,
		RetryBackoff:     time.Millisecond,
		MaxAttempts:      3,
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

	// Two retries (attempts 1, 2), then the spent budget (attempt 3).
	if rq, f := moved("cluster.tasks.requeued"), moved("cluster.tasks.failed"); rq != 2 || f != 1 {
		t.Fatalf("requeued +%d, failed +%d; want +2 and +1", rq, f)
	}
	if e, s := moved(obs.Labeled("cluster.tasks.requeued", "cause", "error")), moved(obs.Labeled("cluster.tasks.requeued", "cause", "silent")); e != 2 || s != 0 {
		t.Fatalf("requeued for cause error +%d, silent +%d; want +2 and +0", e, s)
	}
}

// TestQuarantineAndReadmission silences a worker past the heartbeat timeout,
// checks its in-flight task requeues, then heartbeats again and checks the
// worker is served tasks once more.
func TestQuarantineAndReadmission(t *testing.T) {
	moved := counting(t)
	c := NewCoordinatorWith(FaultConfig{
		HeartbeatTimeout: 50 * time.Millisecond,
		RetryBackoff:     time.Millisecond,
		MaxAttempts:      3,
	})
	defer c.Shutdown()
	svc := &Service{c: c}
	enqueue, terminal := queue(c)
	enqueue(RPCTask{ID: 1})

	var task RPCTask
	if err := svc.NextTask("flaky", &task); err != nil {
		t.Fatal(err)
	}
	// Go silent: the silence timer must quarantine "flaky" and requeue task 1;
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

	// "flaky" went through quarantine and readmission once each. (A worker
	// parked in NextTask can age past the timeout too and bounce through
	// both, so count "flaky"'s own series.)
	q := moved(obs.Labeled("cluster.coord.quarantined", "worker", "flaky"))
	ra := moved(obs.Labeled("cluster.coord.readmitted", "worker", "flaky"))
	if q != 1 || ra != 1 {
		t.Fatalf("flaky quarantined +%d, readmitted +%d; want +1 each", q, ra)
	}
	if s, e := moved(obs.Labeled("cluster.tasks.requeued", "cause", "silent")), moved(obs.Labeled("cluster.tasks.requeued", "cause", "error")); s != 1 || e != 0 {
		t.Fatalf("requeued for cause silent +%d, error +%d; want +1 and +0", s, e)
	}
}

// TestLateDuplicateSubmitIsDropped: a stalled worker's submit arriving after
// its task was requeued and completed elsewhere must not produce a second
// terminal result.
func TestLateDuplicateSubmitIsDropped(t *testing.T) {
	c := NewCoordinatorWith(FaultConfig{
		HeartbeatTimeout: time.Hour, // manual control; no silence timer fires
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
	noResult(t, terminal, "the late duplicate")
}

// submit sends one worker's result for task id, failing the test on an RPC
// error.
func submit(t *testing.T, svc *Service, worker string, id int, score float64, errMsg string) {
	t.Helper()
	var ack bool
	if err := svc.Submit(RPCResult{Record: trace.Record{ID: id, Score: score}, WorkerID: worker, Err: errMsg}, &ack); err != nil {
		t.Fatal(err)
	}
}

// next hands worker the next task and checks it is task id.
func next(t *testing.T, svc *Service, worker string, id int) {
	t.Helper()
	var task RPCTask
	if err := svc.NextTask(worker, &task); err != nil {
		t.Fatal(err)
	}
	if task.ID != id {
		t.Fatalf("%s got task %d, want %d", worker, task.ID, id)
	}
}

// noResult fails if a terminal result is waiting. Submit delivers before it
// returns, so a submit that resolved its task has already sent it.
func noResult(t *testing.T, terminal <-chan RPCResult, why string) {
	t.Helper()
	select {
	case res := <-terminal:
		t.Fatalf("%s produced a terminal result: %+v", why, res)
	default:
	}
}

// TestReclaimedWorkerLateSubmit walks Submit's paths for a worker whose
// attempt was reclaimed (quarantine) and requeued to another worker, one
// step at a time: (a) the reclaimed worker's late success resolves the task
// once and the requeued copy's later result is a duplicate; (b) its late
// error is dropped and consumes no attempt; (c) Attempts counts the
// executions the task consumed.
func TestReclaimedWorkerLateSubmit(t *testing.T) {
	c := NewCoordinatorWith(FaultConfig{
		HeartbeatTimeout: 40 * time.Millisecond,
		RetryBackoff:     time.Millisecond,
		MaxAttempts:      2, // a consumed late error would fail the task
	})
	defer c.Shutdown()
	svc := &Service{c: c}
	enqueue, terminal := queue(c)
	// B waits in NextTask until A's attempt is reclaimed and requeued.
	reclaim := func(id int) {
		t.Helper()
		enqueue(RPCTask{ID: id})
		next(t, svc, "A", id)
		next(t, svc, "B", id)
	}

	// (a) A's late success wins; B's result is dropped.
	reclaim(0)
	submit(t, svc, "A", 0, 1, "")
	res := <-terminal
	if res.WorkerID != "A" || res.Score != 1 || res.Failed || res.Attempts != 2 {
		t.Fatalf("late success = %+v, want A's score 1 after 2 attempts", res)
	}
	submit(t, svc, "B", 0, 2, "")
	noResult(t, terminal, "the requeued copy's result")

	// (b) A's late error is dropped: with MaxAttempts 2, consuming an
	// attempt would have failed the task. B's success then resolves it.
	moved := counting(t)
	reclaim(1)
	submit(t, svc, "A", 1, 0, "late error")
	noResult(t, terminal, "a reclaimed worker's late error")
	if n := moved("cluster.tasks.requeued"); n != 1 {
		t.Fatalf("task 1 requeued %d times, want once (the reclaim)", n)
	}
	submit(t, svc, "B", 1, 3, "")
	res = <-terminal
	if res.WorkerID != "B" || res.Score != 3 || res.Failed || res.Attempts != 2 {
		t.Fatalf("result = %+v, want B's score 3 after 2 attempts", res)
	}
	if n := moved("cluster.tasks.failed"); n != 0 {
		t.Fatalf("task 1 failed %d times", n)
	}
}

// TestFaultShutdownLeavesNoGoroutine: a coordinator runs no goroutine of its
// own (silence and backoff are timers): dispatching, beating and requeuing
// start none, and once a search has run, the coordinator is shut down, its
// worker has returned and its listener is closed, no goroutine runs this
// package's code or serves an RPC connection.
func TestFaultShutdownLeavesNoGoroutine(t *testing.T) {
	idle := NewCoordinatorWith(FaultConfig{RetryBackoff: time.Hour})
	enqueue, _ := queue(idle)
	enqueue(RPCTask{ID: 0})
	svc := &Service{c: idle}
	next(t, svc, "w", 0)
	submit(t, svc, "w", 0, 0, "boom") // requeued behind an hour's backoff
	// Polled, as a timer callback or connection an earlier test left may
	// still be finishing; one the idle coordinator started never would.
	waitNoClusterGoroutines(t, "running the idle coordinator")
	idle.Shutdown()

	c, stop := startCluster(t, 1)
	if _, err := RunDistributed(c, DistConfig{
		App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Matcher: "LCS", Budget: 3, Outstanding: 1, Seed: 5, N: 2, S: 2,
	}); err != nil {
		t.Fatal(err)
	}
	stop()
	waitNoClusterGoroutines(t, "left after Shutdown")
}

// waitNoClusterGoroutines polls until no goroutine but the caller's runs (or
// was started by) this package's code or serves an RPC connection, failing
// the test after a generous grace period.
func waitNoClusterGoroutines(t *testing.T, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		left := clusterGoroutines()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines %s:\n\n%s", len(left), what, strings.Join(left, "\n\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// clusterGoroutines returns the stack of every goroutine but the caller's
// that runs (or was started by) this package's code or serves an RPC
// connection.
func clusterGoroutines() []string {
	buf := make([]byte, 1<<20)
	stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
	var left []string
	for _, s := range stacks[1:] { // the caller's own comes first
		if strings.Contains(s, "swtnas/internal/cluster.") || strings.Contains(s, "net/rpc.(*Server).ServeConn") {
			left = append(left, s)
		}
	}
	return left
}
