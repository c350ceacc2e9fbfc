package nas

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/evo"
	"swtnas/internal/obs"
	"swtnas/internal/parallel"
	"swtnas/internal/trace"
)

func tinyApp(t *testing.T, name string) *apps.App {
	t.Helper()
	app, err := apps.New(name, 1, apps.Config{Data: data.Config{TrainN: 32, ValN: 16}})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestCandidateID(t *testing.T) {
	if got := CandidateID(42); got != "cand-000042" {
		t.Fatalf("CandidateID = %q", got)
	}
}

func TestEvaluatorBaseline(t *testing.T) {
	app := tinyApp(t, "nt3")
	store := checkpoint.NewCASMemStore()
	e := &Evaluator{App: app, Store: store}
	arch := app.Space.Random(randSource(1))
	res := e.Evaluate(Task{ID: 0, Arch: arch, ParentID: -1, Seed: 7})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Params <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.TransferCopied != 0 {
		t.Fatal("baseline must not transfer")
	}
	if res.CheckpointBytes <= 0 {
		t.Fatal("candidate was not checkpointed")
	}
	if _, err := store.Load(CandidateID(0)); err != nil {
		t.Fatalf("checkpoint missing: %v", err)
	}
}

func TestEvaluatorTransfersFromParent(t *testing.T) {
	app := tinyApp(t, "nt3")
	store := checkpoint.NewCASMemStore()
	e := &Evaluator{App: app, Store: store, Matcher: core.LCS{}}
	rng := randSource(2)
	parentArch := app.Space.Random(rng)
	parent := e.Evaluate(Task{ID: 0, Arch: parentArch, ParentID: -1, Seed: 1})
	if parent.Err != nil {
		t.Fatal(parent.Err)
	}
	childArch, err := app.Space.Mutate(parentArch, rng)
	if err != nil {
		t.Fatal(err)
	}
	child := e.Evaluate(Task{ID: 1, Arch: childArch, ParentID: 0, Seed: 2})
	if child.Err != nil {
		t.Fatal(child.Err)
	}
	if child.TransferCopied == 0 {
		t.Fatalf("expected transfer from d=1 parent, result = %+v", child)
	}
}

func TestEvaluatorMissingParentFails(t *testing.T) {
	app := tinyApp(t, "nt3")
	e := &Evaluator{App: app, Store: checkpoint.NewCASMemStore(), Matcher: core.LP{}}
	res := e.Evaluate(Task{ID: 0, Arch: app.Space.Random(randSource(3)), ParentID: 99, Seed: 1})
	if res.Err == nil {
		t.Fatal("missing provider checkpoint must fail the evaluation")
	}
}

func TestRunValidatesConfig(t *testing.T) {
	app := tinyApp(t, "nt3")
	if _, err := Run(context.Background(), Config{App: nil, Budget: 1}); err == nil {
		t.Fatal("nil app must error")
	}
	if _, err := Run(context.Background(), Config{App: app, Budget: 0}); err == nil {
		t.Fatal("zero budget must error")
	}
}

func TestRunBaselineSearch(t *testing.T) {
	app := tinyApp(t, "nt3")
	tr, err := Run(context.Background(), Config{
		App:      app,
		Strategy: evo.NewRegularizedEvolution(app.Space, 4, 2),
		Budget:   10,
		Workers:  2,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 10 {
		t.Fatalf("records = %d", len(tr.Records))
	}
	if tr.Scheme != "baseline" || tr.App != "nt3" {
		t.Fatalf("trace header = %+v", tr)
	}
	var prev time.Duration
	ids := map[int]bool{}
	for _, r := range tr.Records {
		if r.CompletedAt < prev {
			t.Fatal("records not in completion order")
		}
		prev = r.CompletedAt
		if ids[r.ID] {
			t.Fatalf("duplicate candidate id %d", r.ID)
		}
		ids[r.ID] = true
		if r.TransferCopied != 0 {
			t.Fatal("baseline must not transfer")
		}
	}
}

func TestRunLCSSearchTransfers(t *testing.T) {
	app := tinyApp(t, "nt3")
	tr, err := Run(context.Background(), Config{
		App:      app,
		Strategy: evo.NewRegularizedEvolution(app.Space, 4, 2),
		Matcher:  core.LCS{},
		Budget:   16,
		Workers:  1,
		Seed:     13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Scheme != "LCS" {
		t.Fatalf("scheme = %q", tr.Scheme)
	}
	// After the 4-member population fills, children must be mutations
	// with transfer attempts; most d=1 NT3 mutations share layers.
	transferred := 0
	withParent := 0
	for _, r := range tr.Records {
		if r.ParentID >= 0 {
			withParent++
			if r.TransferCopied > 0 {
				transferred++
			}
		}
	}
	if withParent == 0 {
		t.Fatal("no proposals used a parent")
	}
	if transferred == 0 {
		t.Fatal("no weights were ever transferred")
	}
}

// TestPoolKernelSplit pins the one evaluator×kernel core split, the pool's:
// with S evaluations on its slots and C cores the kernel limit is
// max(1, C/S), and C/(S−1) once one of them finishes; the
// nas.pool.kernel.workers gauge reads the same. Close restores the limit the
// pool found, a slot that finishes after Close writes nothing, and
// SWTNAS_WORKERS leaves the limit alone.
func TestPoolKernelSplit(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "")
	defer obs.SetEnabled(obs.SetEnabled(true))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer parallel.SetWorkers(parallel.SetWorkers(3))
	for _, c := range []struct{ slots, cores int }{
		{4, 8},  // even split
		{8, 4},  // oversubscribed: floor at 1
		{4, 9},  // remainder cores stay idle rather than oversubscribe
		{1, 16}, // a lone evaluation gets the machine
	} {
		runtime.GOMAXPROCS(c.cores)
		p := NewSharedPool(PoolConfig{Workers: c.slots})
		limits, gauges := splitReadings(t, p, c.slots)
		for k := range limits {
			// Task k reads with the k tasks before it finished.
			want := max(1, c.cores/(c.slots-k))
			if limits[k] != want || gauges[k] != int64(want) {
				t.Errorf("%d cores, %d of %d evaluations running: kernel limit %d, gauge %d, want %d", c.cores, c.slots-k, c.slots, limits[k], gauges[k], want)
			}
		}
		if got := parallel.Workers(); got != c.cores {
			t.Errorf("%d cores, idle pool: kernel limit %d, want all the cores", c.cores, got)
		}
		p.Close()
		if got := parallel.Workers(); got != 3 {
			t.Errorf("%d cores: limit after Close %d, want the 3 it found", c.cores, got)
		}
	}

	// A slot that finishes after Close leaves the restored limit alone.
	runtime.GOMAXPROCS(8)
	p := NewSharedPool(PoolConfig{Workers: 1})
	client, err := p.Register(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	out := make(chan Result, 1)
	client.Submit(context.Background(), Task{}, func(_ context.Context, task Task) Result {
		close(started)
		<-release
		return Result{Record: trace.Record{ID: task.ID}}
	}, out)
	<-started
	p.Close()
	close(release)
	drain(t, out, 1)
	if got := parallel.Workers(); got != 3 {
		t.Errorf("limit after a slot finished past Close: %d, want the 3 the pool found", got)
	}

	// SWTNAS_WORKERS pins the limit: the pool neither divides nor restores it.
	t.Setenv(parallel.EnvWorkers, "7")
	mPoolKernel.Set(-1)
	p = NewSharedPool(PoolConfig{Workers: 2})
	limits, _ := splitReadings(t, p, 2)
	p.Close()
	if limits[0] != 3 || limits[1] != 3 || parallel.Workers() != 3 || mPoolKernel.Value() != -1 {
		t.Errorf("%s set: kernel limits %v, %d after Close, gauge %d; want 3 throughout and the gauge untouched", parallel.EnvWorkers, limits, parallel.Workers(), mPoolKernel.Value())
	}
}

// splitReadings runs n tasks on p at once; once all n are on the slots it
// lets them finish one at a time, each reading the kernel limit and the
// nas.pool.kernel.workers gauge as it goes: task k reads with n−k running.
func splitReadings(t *testing.T, p *SharedPool, n int) (limits []int, gauges []int64) {
	t.Helper()
	client, err := p.Register(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	limits, gauges = make([]int, n), make([]int64, n)
	started := make(chan struct{}, n)
	release := make([]chan struct{}, n)
	out := make(chan Result, n)
	for i := range n {
		release[i] = make(chan struct{})
		client.Submit(context.Background(), Task{ID: i}, func(_ context.Context, task Task) Result {
			started <- struct{}{}
			<-release[task.ID]
			limits[task.ID], gauges[task.ID] = parallel.Workers(), mPoolKernel.Value()
			return Result{Record: trace.Record{ID: task.ID}}
		}, out)
	}
	for range n {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d tasks never ran at once on %d slots", n, p.Workers())
		}
	}
	for i := range n {
		close(release[i])
		drain(t, out, 1)
	}
	return limits, gauges
}

// TestRunAutoSplitRestoresPoolLimit: Run's private pool divides the cores
// between the evaluations it runs, and an explicit KernelWorkers pins the
// limit for the run instead; a one-evaluator search looks ahead that many
// candidates wide. Either way Run leaves the limit it found. On an Executor,
// KernelWorkers is ignored and the executor's pool splits. Every leg reads
// the limit inside two evaluations that a store holds side by side.
func TestRunAutoSplitRestoresPoolLimit(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	defer parallel.SetWorkers(parallel.Workers())
	app := tinyApp(t, "nt3")
	run := func(workers, kernel int, exec Executor) []int {
		store := &sideBySideStore{Store: checkpoint.NewCASMemStore(), arrived: newGate(2), read: newGate(2)}
		_, err := Run(context.Background(), Config{
			App: app, Store: store, Budget: 2, Seed: 1, Workers: workers, KernelWorkers: kernel, Executor: exec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return store.seen
	}
	for _, c := range []struct{ workers, kernel, found, want int }{
		{2, 0, 3, 4}, // two evaluations on 8 cores
		{2, 5, 3, 5}, // pinned
		{1, 0, 3, 4}, // lookahead as wide as the limit, capped at the budget
		{1, 2, 1, 2}, // as wide as KernelWorkers, not the limit found
	} {
		parallel.SetWorkers(c.found)
		seen := run(c.workers, c.kernel, nil)
		if len(seen) != 2 || seen[0] != c.want || seen[1] != c.want {
			t.Errorf("Workers %d, KernelWorkers %d: kernel limit %v in the evaluations side by side, want %d", c.workers, c.kernel, seen, c.want)
		}
		if got := parallel.Workers(); got != c.found {
			t.Errorf("Workers %d, KernelWorkers %d: limit after Run %d, want the %d it found", c.workers, c.kernel, got, c.found)
		}
	}
	p := NewSharedPool(PoolConfig{Workers: 2})
	defer p.Close()
	client, err := p.Register(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if seen := run(2, 5, client); len(seen) != 2 || seen[0] != 4 || seen[1] != 4 {
		t.Errorf("KernelWorkers 5 on a shared pool: kernel limit %v in the evaluations side by side, want the pool's split 4", seen)
	}
	if got := parallel.Workers(); got != 8 {
		t.Errorf("KernelWorkers 5 on a shared pool: limit after Run %d, want the idle pool's 8", got)
	}
}

// sideBySideStore holds each Save until two evaluations are in it, and
// records the kernel limit each reads there (0 when the other never came).
type sideBySideStore struct {
	checkpoint.Store
	arrived, read *gate
	mu            sync.Mutex
	seen          []int
}

func (s *sideBySideStore) Save(id string, m *checkpoint.Model) (int64, error) {
	kw := 0
	if s.arrived.pass() {
		kw = parallel.Workers()
	}
	s.mu.Lock()
	s.seen = append(s.seen, kw)
	s.mu.Unlock()
	s.read.pass() // neither evaluation ends before both have read
	return s.Store.Save(id, m)
}

// gate opens once n goroutines have reached it; pass reports whether it did
// within 10 s, so a search that never runs n evaluations at once fails its
// test rather than hanging.
type gate struct {
	mu   sync.Mutex
	n    int
	open chan struct{}
}

func newGate(n int) *gate { return &gate{n: n, open: make(chan struct{})} }

func (g *gate) pass() bool {
	g.mu.Lock()
	if g.n--; g.n == 0 {
		close(g.open)
	}
	g.mu.Unlock()
	select {
	case <-g.open:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

func TestRunBestScoreMonotonic(t *testing.T) {
	app := tinyApp(t, "nt3")
	var bests []float64
	var scores []float64
	tr, err := Run(context.Background(), Config{
		App:      app,
		Strategy: evo.NewRegularizedEvolution(app.Space, 4, 2),
		Budget:   8,
		Workers:  2,
		Seed:     29,
		Progress: func(r Result) {
			bests = append(bests, r.BestScore)
			scores = append(scores, r.Score)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bests) != len(tr.Records) {
		t.Fatalf("progress calls = %d, records = %d", len(bests), len(tr.Records))
	}
	running := math.Inf(-1)
	for i := range bests {
		if scores[i] > running {
			running = scores[i]
		}
		if bests[i] != running {
			t.Fatalf("record %d: BestScore = %v, want running best %v", i, bests[i], running)
		}
	}
}

func TestRunSingleWorkerDeterministic(t *testing.T) {
	app := tinyApp(t, "nt3")
	run := func() []float64 {
		tr, err := Run(context.Background(), Config{
			App:      app,
			Strategy: evo.NewRegularizedEvolution(app.Space, 4, 2),
			Matcher:  core.LP{},
			Budget:   8,
			Workers:  1,
			Seed:     17,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Scores()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at record %d: %v vs %v", i, a[i], b[i])
		}
	}
}
