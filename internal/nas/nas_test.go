package nas

import (
	"context"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/evo"
	"swtnas/internal/parallel"
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
	if res.Params <= 0 || len(res.ShapeSeq) == 0 {
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
// max(1, GOMAXPROCS/min(demand, slots)) while searches run, and the limit
// the pool found back once it closes. Run keeps its private pool off the
// split with one evaluator or an explicit KernelWorkers.
func TestPoolKernelSplit(t *testing.T) {
	if os.Getenv(parallel.EnvWorkers) != "" {
		t.Skipf("%s pins the pool limit; the split is disabled", parallel.EnvWorkers)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer parallel.SetWorkers(parallel.SetWorkers(3))
	cases := []struct {
		slots, demand, cores, want int
	}{
		{4, 4, 8, 2},   // even split
		{8, 8, 4, 1},   // oversubscribed: floor at 1
		{4, 4, 9, 2},   // remainder cores stay idle rather than oversubscribe
		{1, 1, 16, 16}, // single evaluator gets the machine
		{0, 0, 8, 8},   // defensive: degenerate slot and demand counts
		{8, 2, 8, 4},   // demand below the slot count: the busy slots share the cores
	}
	for _, c := range cases {
		runtime.GOMAXPROCS(c.cores)
		p := NewSharedPool(PoolConfig{Workers: c.slots})
		if _, err := p.Register(ClientConfig{Concurrency: c.demand}); err != nil {
			t.Fatal(err)
		}
		if got := parallel.Workers(); got != c.want {
			t.Errorf("%d slots, demand %d, %d cores: kernel limit %d, want %d", c.slots, c.demand, c.cores, got, c.want)
		}
		p.Close()
		if got := parallel.Workers(); got != 3 {
			t.Errorf("%d slots, demand %d, %d cores: limit after Close %d, want the 3 it found", c.slots, c.demand, c.cores, got)
		}
	}
	// Run's private pool: one evaluator leaves the limit alone, and an
	// explicit KernelWorkers pins it, during the run and after.
	runtime.GOMAXPROCS(8)
	app := tinyApp(t, "nt3")
	for _, c := range []struct{ workers, kernel, want int }{{1, 0, 3}, {2, 5, 5}} {
		parallel.SetWorkers(3)
		during := 0
		_, err := Run(context.Background(), Config{
			App: app, Budget: 2, Seed: 1, Workers: c.workers, KernelWorkers: c.kernel,
			Progress: func(Result) { during = parallel.Workers() },
		})
		if err != nil {
			t.Fatal(err)
		}
		if after := parallel.Workers(); during != c.want || after != c.want {
			t.Errorf("Workers %d, KernelWorkers %d: kernel limit %d during the run, %d after, want %d", c.workers, c.kernel, during, after, c.want)
		}
	}
}

func TestRunAutoSplitRestoresPoolLimit(t *testing.T) {
	if os.Getenv(parallel.EnvWorkers) != "" {
		t.Skipf("%s pins the pool limit; auto-split is disabled", parallel.EnvWorkers)
	}
	prev := parallel.SetWorkers(runtime.GOMAXPROCS(0))
	defer parallel.SetWorkers(prev)
	before := parallel.Workers()

	var during int
	app := tinyApp(t, "nt3")
	_, err := Run(context.Background(), Config{
		App:      app,
		Strategy: evo.NewRegularizedEvolution(app.Space, 2, 1),
		Budget:   2,
		Workers:  2,
		Seed:     23,
		Progress: func(Result) { during = parallel.Workers() },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := max(1, runtime.GOMAXPROCS(0)/2)
	if during != want {
		t.Errorf("pool limit during run = %d, want auto split %d", during, want)
	}
	if got := parallel.Workers(); got != before {
		t.Errorf("pool limit after run = %d, want restored %d", got, before)
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
