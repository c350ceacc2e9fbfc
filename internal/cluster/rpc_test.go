package cluster

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"swtnas/internal/trace"
)

// startCluster spins up a coordinator on a loopback port plus n in-process
// workers, returning the coordinator and a stop function.
func startCluster(t *testing.T, n int) (*Coordinator, func()) {
	t.Helper()
	c := NewCoordinator()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(l) //nolint:errcheck // returns when the listener closes
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		w := &Worker{ID: fmt.Sprintf("worker-%d", i)}
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
			case <-time.After(5 * time.Second):
				t.Error("worker did not shut down")
			}
		}
		l.Close()
	}
	return c, stop
}

func TestWorkerExecutesTask(t *testing.T) {
	w := &Worker{ID: "w0"}
	task := RPCTask{
		ID: 1, App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Arch: []int{0, 0, 0, 0, 0, 0, 0, 0}, Seed: 5,
	}
	res := w.Execute(task)
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if res.ID != 1 || res.WorkerID != "w0" {
		t.Fatalf("result header = %+v", res)
	}
	if len(res.Checkpoint) == 0 || res.Params <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// The app cache must serve a second task without rebuilding.
	res2 := w.Execute(task)
	if res2.Err != "" {
		t.Fatal(res2.Err)
	}
}

func TestWorkerRejectsBadTask(t *testing.T) {
	w := &Worker{ID: "w0"}
	if res := w.Execute(RPCTask{App: "bogus"}); res.Err == "" {
		t.Fatal("unknown app must fail")
	}
	bad := RPCTask{ID: 1, App: "nt3", DataSeed: 1, TrainN: 16, ValN: 8, Arch: []int{1}}
	if res := w.Execute(bad); res.Err == "" {
		t.Fatal("invalid arch must fail")
	}
	withParent := RPCTask{
		ID: 1, App: "nt3", DataSeed: 1, TrainN: 16, ValN: 8,
		Arch: []int{0, 0, 0, 0, 0, 0, 0, 0}, Matcher: "LCS", Parent: []byte("garbage"),
	}
	if res := w.Execute(withParent); res.Err == "" {
		t.Fatal("corrupt parent checkpoint must fail")
	}
	withParent.Matcher = "nope"
	if res := w.Execute(withParent); res.Err == "" {
		t.Fatal("unknown matcher must fail")
	}
}

func TestDistributedSearchOverTCP(t *testing.T) {
	c, stop := startCluster(t, 2)
	defer stop()
	var mu sync.Mutex
	var streamed []trace.Record
	tr, err := RunDistributed(c, DistConfig{
		App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Matcher: "LCS", Budget: 8, Outstanding: 2, Seed: 3, N: 3, S: 2,
		Progress: func(r trace.Record) {
			mu.Lock()
			streamed = append(streamed, r)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 8 {
		t.Fatalf("records = %d", len(tr.Records))
	}
	// Progress streamed the same records the trace recorded, in order.
	mu.Lock()
	if len(streamed) != len(tr.Records) {
		t.Fatalf("streamed %d records, trace has %d", len(streamed), len(tr.Records))
	}
	for i := range streamed {
		if streamed[i].ID != tr.Records[i].ID || streamed[i].Score != tr.Records[i].Score {
			t.Fatalf("streamed record %d = %+v, trace has %+v", i, streamed[i], tr.Records[i])
		}
	}
	mu.Unlock()
	if tr.Scheme != "LCS" {
		t.Fatalf("scheme = %q", tr.Scheme)
	}
	transferred := 0
	for _, r := range tr.Records {
		if r.CheckpointBytes == 0 {
			t.Fatal("missing checkpoint bytes")
		}
		// The worker's record crosses the wire whole: what the lineage and
		// latency analyses read is there on a distributed trace too.
		if r.EvalTime <= 0 || r.EvalTime < r.TrainTime {
			t.Fatalf("record %d: eval time %v, train time %v", r.ID, r.EvalTime, r.TrainTime)
		}
		if r.ParentID >= len(tr.Records) {
			t.Fatalf("record %d names provider %d, not a candidate of this search", r.ID, r.ParentID)
		}
		if r.TransferCopied > 0 {
			transferred++
		}
	}
	if transferred == 0 {
		t.Fatal("distributed LCS search never transferred weights")
	}
}

func TestDistributedBaselineOverTCP(t *testing.T) {
	c, stop := startCluster(t, 1)
	defer stop()
	tr, err := RunDistributed(c, DistConfig{
		App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16,
		Budget: 4, Outstanding: 1, Seed: 4, N: 2, S: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Scheme != "baseline" {
		t.Fatalf("scheme = %q", tr.Scheme)
	}
	for _, r := range tr.Records {
		if r.TransferCopied != 0 {
			t.Fatal("baseline must not transfer")
		}
	}
}

func TestRunDistributedValidatesBudget(t *testing.T) {
	c := NewCoordinator()
	if _, err := RunDistributed(c, DistConfig{App: "nt3", Budget: 0}); err == nil {
		t.Fatal("zero budget must error")
	}
	if _, err := RunDistributed(c, DistConfig{App: "bogus", Budget: 1}); err == nil {
		t.Fatal("unknown app must error")
	}
}
