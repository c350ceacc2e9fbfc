package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/evo"
	"swtnas/internal/nas"
	"swtnas/internal/nn"
	"swtnas/internal/tensor"
)

// TestDivergedCandidateIsTerminal is the coordinator's leg of the divergence
// rule (internal/nas's TestNonFiniteWeightIsFailedRecord is the pool's, on
// the same search): a candidate whose float32 training overflowed to a NaN
// weight under a finite accuracy comes back from the worker as a terminal
// Failed record with reason "non-finite weight" — no retry, no checkpoint —
// and the coordinator's store holds exactly the scored candidates. The
// worker trains on the same overflowing inputs as the coordinator's app: its
// application cache is filled with that app before it connects.
func TestDivergedCandidateIsTerminal(t *testing.T) {
	const key = "nt3/1/32/16" // Worker.appFor's key of the task template below
	overflowing := func() *apps.App {
		app, err := apps.New("nt3", 1, apps.Config{Data: data.Config{TrainN: 32, ValN: 16}})
		if err != nil {
			t.Fatal(err)
		}
		for _, split := range []*nn.Data{app.Dataset.Train, app.Dataset.Val} {
			for _, in := range split.Inputs {
				for i := range in.Data {
					in.Data[i] *= 2e37
				}
			}
		}
		return app
	}
	moved := counting(t)
	c := NewCoordinatorWith(FaultConfig{RetryBackoff: time.Millisecond, MonitorInterval: 2 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(l) //nolint:errcheck // returns when the listener closes
	w := &Worker{ID: "w0", appKey: key, app: overflowing()}
	done := make(chan error, 1)
	go func() { done <- w.Run(l.Addr().String()) }()
	defer func() {
		c.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("worker exit: %v", err)
		}
		l.Close()
	}()

	app := overflowing()
	store := checkpoint.NewCASMemStore()
	tr, err := nas.Run(context.Background(), nas.Config{
		App:      app,
		DType:    tensor.F32,
		Matcher:  core.LCS{},
		Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2),
		Store:    store,
		Budget:   6,
		Seed:     5,
		Executor: c.Bind(RPCTask{App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16, Matcher: "LCS", DType: "f32"}, store),
	})
	if err != nil {
		t.Fatalf("a diverged candidate must not abort the search: %v", err)
	}
	failed := 0
	for _, r := range tr.Records {
		if r.Failed {
			failed++
			if r.FailReason != "non-finite weight" || r.Score != 0 || r.CheckpointBytes != 0 {
				t.Fatalf("record %+v: want reason \"non-finite weight\", a zero score and no checkpoint", r)
			}
		}
	}
	if failed == 0 || failed == len(tr.Records) {
		t.Fatalf("%d of %d candidates diverged; the test wants both kinds", failed, len(tr.Records))
	}
	ids, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(tr.Records)-failed {
		t.Fatalf("the store holds %d objects for %d scored candidates", len(ids), len(tr.Records)-failed)
	}
	if rq, f := moved("cluster.tasks.requeued"), moved("cluster.tasks.failed"); rq != 0 || f != 0 {
		t.Fatalf("requeued +%d, failed +%d: a diverged candidate was retried", rq, f)
	}
}
