package nas_test

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"swtnas/internal/checkpoint"
	"swtnas/internal/cluster"
	"swtnas/internal/core"
	"swtnas/internal/evo"
	"swtnas/internal/nas"
	"swtnas/internal/obs"
	"swtnas/internal/resilience"
	"swtnas/internal/tensor"
	"swtnas/internal/trace"
)

// executors are the places nas.Run can evaluate a candidate: "local" is the
// default, a private pool Run owns. attach points cfg (Store, Matcher and
// DType already set) at the executor and registers its teardown; failID >= 0
// makes every evaluation of that candidate fail, which only the coordinator
// survives (it alone retries and then marks the task Failed).
var executors = []struct {
	name   string
	attach func(t *testing.T, cfg *nas.Config, failID int)
}{
	{"local", func(*testing.T, *nas.Config, int) {}},
	{"pool", attachPool(1)},
	{"coordinator", attachCoordinator},
}

// lookaheadPools are shared pools of 2 and 4 slots, on which a
// one-evaluator client looks ahead.
var lookaheadPools = []struct {
	name   string
	attach func(t *testing.T, cfg *nas.Config, failID int)
}{
	{"pool-2", attachPool(2)},
	{"pool-4", attachPool(4)},
}

// attachPool makes cfg a one-evaluator client of a SharedPool of the given
// slots.
func attachPool(slots int) func(*testing.T, *nas.Config, int) {
	return func(t *testing.T, cfg *nas.Config, _ int) {
		p := nas.NewSharedPool(nas.PoolConfig{Workers: slots})
		t.Cleanup(p.Close)
		client, err := p.Register(nas.ClientConfig{Tenant: "t", Concurrency: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(client.Close)
		cfg.Executor = client
	}
}

// attachCoordinator serves a coordinator on a loopback port with one
// in-process TCP worker; the task template repeats nas.TinyApp's dataset.
func attachCoordinator(t *testing.T, cfg *nas.Config, failID int) {
	c := cluster.NewCoordinatorWith(cluster.FaultConfig{RetryBackoff: time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(l) //nolint:errcheck // returns when the listener closes
	w := &cluster.Worker{ID: "w0"}
	if failID >= 0 {
		w.ExecuteHook = func(rt cluster.RPCTask) (cluster.RPCResult, error) {
			if rt.ID == failID {
				return cluster.RPCResult{Record: trace.Record{ID: rt.ID}, WorkerID: w.ID, Err: "injected task failure"}, nil
			}
			return w.Execute(rt), nil
		}
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(l.Addr().String()) }()
	t.Cleanup(func() {
		c.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("worker exit: %v", err)
		}
		l.Close()
	})
	tmpl := cluster.RPCTask{App: "nt3", DataSeed: 1, TrainN: 32, ValN: 16, DType: cfg.DType.String()}
	if cfg.Matcher != nil {
		tmpl.Matcher = cfg.Matcher.Name()
	}
	cfg.Executor = c.Bind(tmpl, cfg.Store.(*checkpoint.CASStore))
}

// searchConfig is the seeded six-candidate search every test here runs, at
// one outstanding task so completion order is fixed.
func searchConfig(t *testing.T, matcher core.Matcher, dt tensor.DType) nas.Config {
	app := nas.TinyApp(t, "nt3")
	return nas.Config{
		App:      app,
		Matcher:  matcher,
		DType:    dt,
		Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2),
		Store:    checkpoint.NewCASMemStore(),
		Budget:   6,
		Seed:     11,
	}
}

// TestExecutorsProduceIdenticalTraces is the executor-equivalence contract:
// one config and seed give the bit-identical trace — architectures, parents,
// scores, transferred tensors, top-K — wherever the evaluations run, and
// however many of a shared pool's slots a one-evaluator client looks ahead
// on. Rank fidelity is the repo's scorecard, so a seed must rank the same on
// every executor.
func TestExecutorsProduceIdenticalTraces(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	ahead := obs.GetCounter("nas.lookahead.ahead")
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		for _, matcher := range []core.Matcher{core.LCS{}, nil} {
			var ref *trace.Trace
			for _, ex := range slices.Concat(executors, lookaheadPools) {
				label := fmt.Sprintf("%s/%s/%s", dt, nas.SchemeName(matcher), ex.name)
				t.Run(label, func(t *testing.T) {
					cfg := searchConfig(t, matcher, dt)
					ex.attach(t, &cfg, -1)
					before := ahead.Value()
					tr, err := nas.Run(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if strings.HasPrefix(ex.name, "pool-") && ahead.Value() == before {
						t.Fatal("the client never ran a candidate ahead")
					}
					if ref == nil {
						ref = tr
						return
					}
					nas.TracesEqual(t, ref, tr, label+" vs local")
				})
			}
		}
	}
}

// journaledSearch writes prefix into a fresh journal at path — the file a
// crash after len(prefix) candidates would have left — and runs the search
// to completion from there on ex, with candidate failID failing every
// attempt (none if negative). The store is the content-addressed disk store
// at storeDir, reopened as the restarted process would: the journal's
// manifest records resolve against the blobs the interrupted run left there.
func journaledSearch(t *testing.T, attach func(*testing.T, *nas.Config, int), storeDir, path string, prefix []resilience.EvalRecord, failID int) *trace.Trace {
	t.Helper()
	store, err := checkpoint.NewCASDiskStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := resilience.Create(path, resilience.Header{App: "nt3", Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range prefix {
		if err := j.Append(er); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, rec, err := resilience.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := searchConfig(t, core.LCS{}, tensor.F64)
	cfg.Store, cfg.Journal, cfg.Resume = store, j, rec
	attach(t, &cfg, failID)
	tr, err := nas.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestResumeBitIdenticalAtEveryInterrupt is the tentpole determinism
// guarantee, on every executor: interrupt a journaled search after every
// candidate count k, resume from the truncated journal, and the completed
// run must match the uninterrupted one record for record — same scores,
// same architectures, same weight-transfer amounts (manifests re-adopted
// against the surviving blobs, hash-verified), same top-K. It holds with a
// lost candidate in the run too: its Failed record is journaled, so replay
// mirrors the proposal that its completion triggered, and it stays lost
// rather than being evaluated again.
func TestResumeBitIdenticalAtEveryInterrupt(t *testing.T) {
	for _, ex := range executors {
		for _, failID := range []int{-1, 2} {
			if failID >= 0 && ex.name != "coordinator" {
				continue // no retry budget: a failure aborts the search
			}
			t.Run(fmt.Sprintf("%s/fail=%d", ex.name, failID), func(t *testing.T) {
				dir := t.TempDir()
				storeDir := filepath.Join(dir, "blobs")
				fullPath := filepath.Join(dir, "full.swtj")
				full := journaledSearch(t, ex.attach, storeDir, fullPath, nil, failID)
				rec, err := resilience.Read(fullPath)
				if err != nil {
					t.Fatal(err)
				}
				if len(rec.Records) != 6 {
					t.Fatalf("journal holds %d records, want 6", len(rec.Records))
				}
				for k := 0; k <= 6; k++ {
					path := filepath.Join(dir, fmt.Sprintf("cut-%d.swtj", k))
					resumed := journaledSearch(t, ex.attach, storeDir, path, rec.Records[:k], failID)
					nas.TracesEqual(t, full, resumed, fmt.Sprintf("interrupt after %d candidates", k))
					final, err := resilience.Read(path)
					if err != nil {
						t.Fatal(err)
					}
					if len(final.Records) != 6 {
						t.Fatalf("k=%d: repaired journal holds %d records, want 6", k, len(final.Records))
					}
				}
			})
		}
	}
}

// TestSpentRetryBudgetIsOneFailedRecord is the failure rule on the executor
// that retries, the coordinator: a candidate that fails every attempt ends as
// exactly one Failed record, the strategy sees it as a Failed member, and
// the search still reaches its budget.
func TestSpentRetryBudgetIsOneFailedRecord(t *testing.T) {
	const failID = 2
	for _, ex := range executors[2:] { // the pool has no retry budget
		t.Run(ex.name, func(t *testing.T) {
			cfg := searchConfig(t, core.LCS{}, tensor.F64)
			spy := nas.ReportSpy{Strategy: cfg.Strategy, Seen: map[int]bool{}}
			cfg.Strategy = spy
			ex.attach(t, &cfg, failID)
			tr, err := nas.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Records) != cfg.Budget {
				t.Fatalf("records = %d, want the full budget of %d", len(tr.Records), cfg.Budget)
			}
			for _, r := range tr.Records {
				if r.Failed != (r.ID == failID) {
					t.Fatalf("record %+v: only candidate %d may be Failed", r, failID)
				}
				if r.Failed && r.FailReason == "" {
					t.Fatal("Failed record carries no reason")
				}
				if failed, ok := spy.Seen[r.ID]; !ok || failed != r.Failed {
					t.Fatalf("candidate %d: failed=%v but reported=%v (failed=%v)", r.ID, r.Failed, ok, failed)
				}
			}
			for _, i := range tr.TopK(cfg.Budget) {
				if tr.Records[i].Failed {
					t.Fatal("a Failed record ranked in top-K")
				}
			}
		})
	}
}
