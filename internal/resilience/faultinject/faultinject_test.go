package faultinject

import (
	"fmt"
	"net"
	"testing"
	"time"

	"swtnas/internal/cluster"
	"swtnas/internal/obs"
)

// fastFaults is a FaultConfig scaled to test time: a silent worker is
// declared dead in ~300ms instead of 15s.
func fastFaults() cluster.FaultConfig {
	return cluster.FaultConfig{
		HeartbeatTimeout: 300 * time.Millisecond,
		RetryBackoff:     20 * time.Millisecond,
		MaxAttempts:      3,
	}
}

// startInjectedCluster runs a coordinator plus n workers wrapped by the
// schedule's plans. Workers heartbeat every 50ms; crashed workers exit Run
// cleanly (ErrCrash is a simulated death, not an error).
func startInjectedCluster(t *testing.T, n int, sched *Schedule) (*cluster.Coordinator, func()) {
	t.Helper()
	c := cluster.NewCoordinatorWith(fastFaults())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(l) //nolint:errcheck // returns when the listener closes
	done := make(chan error, n)
	workers := make([]*cluster.Worker, n)
	for i := range workers {
		workers[i] = &cluster.Worker{
			ID:             fmt.Sprintf("worker-%d", i),
			HeartbeatEvery: 50 * time.Millisecond,
		}
	}
	sched.WrapAll(workers)
	for _, w := range workers {
		w := w
		go func() { done <- w.Run(l.Addr().String()) }()
	}
	stop := func() {
		c.Shutdown()
		for i := 0; i < n; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("worker exit: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Error("worker did not shut down")
			}
		}
		l.Close()
	}
	return c, stop
}

// TestSearchSurvivesWorkerCrashes is the headline resilience scenario: 4
// workers, a seeded schedule kills 2 of them mid-search, and the distributed
// run still completes its full budget with every candidate scored — the
// crashed workers' in-flight tasks are detected via missed heartbeats,
// requeued, and re-executed on the healthy survivors.
func TestSearchSurvivesWorkerCrashes(t *testing.T) {
	prevEnabled := obs.SetEnabled(true)
	defer obs.SetEnabled(prevEnabled)
	before := obs.Take()

	sched := NewSchedule(11, 4, Options{CrashWorkers: 2, MaxCrashTask: 2})
	crashes := 0
	for _, p := range sched.Plans {
		if p.CrashAtTask > 0 {
			crashes++
		}
	}
	if crashes != 2 {
		t.Fatalf("schedule crashes %d workers, want 2", crashes)
	}

	c, stop := startInjectedCluster(t, 4, sched)
	defer stop()
	// The budget leaves a dozen tasks for the three workers still alive
	// after the first crash, so the one scheduled to die at its second task
	// is handed a second task on any scheduling.
	tr, err := cluster.RunDistributed(c, cluster.DistConfig{
		App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Matcher: "LCS", Budget: 16, Outstanding: 4, Seed: 3, N: 3, S: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 16 {
		t.Fatalf("records = %d, want the full budget of 16", len(tr.Records))
	}
	for _, r := range tr.Records {
		if r.Failed {
			t.Fatalf("candidate %d failed (%s); healthy workers should have absorbed the retries", r.ID, r.FailReason)
		}
		if len(r.Arch) == 0 {
			t.Fatalf("candidate %d has no architecture", r.ID)
		}
	}

	d := obs.Take().Delta(before)
	if got := d.Counters["faultinject.crashes"]; got != 2 {
		t.Fatalf("injected crashes = %d, want 2", got)
	}
	if got := d.Counters["cluster.workers.quarantined"]; got < 2 {
		t.Fatalf("quarantined = %d, want >= 2 (both crashed workers)", got)
	}
	if got := d.Counters["cluster.tasks.requeued"]; got < 2 {
		t.Fatalf("requeued = %d, want >= 2 (each crashed worker held a task)", got)
	}
}

// TestInjectedTaskFailuresAreRetried exercises the worker-error retry path:
// every worker fails its first task (FailEvery 1 would fail all; use a plan
// that fails once), and the coordinator retries until success.
func TestInjectedTaskFailuresAreRetried(t *testing.T) {
	prevEnabled := obs.SetEnabled(true)
	defer obs.SetEnabled(prevEnabled)
	before := obs.Take()

	// Every 3rd task on each worker errors; MaxAttempts 3 means the retry
	// (on any worker) almost surely lands off the failing index.
	sched := &Schedule{Plans: []Plan{{FailEvery: 3}, {FailEvery: 3}}}
	c, stop := startInjectedCluster(t, 2, sched)
	defer stop()
	tr, err := cluster.RunDistributed(c, cluster.DistConfig{
		App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Budget: 6, Outstanding: 2, Seed: 7, N: 3, S: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 6 {
		t.Fatalf("records = %d, want 6", len(tr.Records))
	}
	d := obs.Take().Delta(before)
	if d.Counters["faultinject.failures"] == 0 {
		t.Fatal("schedule injected no failures; test exercised nothing")
	}
	if d.Counters["cluster.tasks.requeued"] == 0 {
		t.Fatal("injected task failures were never requeued")
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	a := NewSchedule(42, 8, Options{CrashWorkers: 3, MaxCrashTask: 5})
	b := NewSchedule(42, 8, Options{CrashWorkers: 3, MaxCrashTask: 5})
	for i := range a.Plans {
		if a.Plans[i] != b.Plans[i] {
			t.Fatalf("plan %d differs across same-seed schedules: %+v vs %+v", i, a.Plans[i], b.Plans[i])
		}
	}
	c := NewSchedule(43, 8, Options{CrashWorkers: 3, MaxCrashTask: 5})
	same := true
	for i := range a.Plans {
		if a.Plans[i].CrashAtTask != c.Plans[i].CrashAtTask {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds drew identical crash schedules")
	}
}
