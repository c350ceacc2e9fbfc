package apps

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"swtnas/internal/data"
	"swtnas/internal/nn"
	"swtnas/internal/search"
)

func smallCfg() Config {
	return Config{Data: data.Config{TrainN: 32, ValN: 16}}
}

// allApps builds the four applications in the paper's order.
func allApps(t *testing.T, seed int64) []*App {
	t.Helper()
	var out []*App
	for _, name := range data.Names() {
		app, err := New(name, seed, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, app)
	}
	return out
}

func TestNewUnknownApp(t *testing.T) {
	if _, err := New("bogus", 1, Config{}); err == nil {
		t.Fatal("unknown app must error")
	}
}

func TestAllAppsHavePaperVNCounts(t *testing.T) {
	// Table I: CIFAR-10 21 VNs, MNIST 11, NT3 8, Uno 13.
	want := map[string]int{"cifar10": 21, "mnist": 11, "nt3": 8, "uno": 13}
	apps := allApps(t, 1)
	if len(apps) != 4 {
		t.Fatalf("got %d apps", len(apps))
	}
	for _, app := range apps {
		if got := app.Space.NumNodes(); got != want[app.Name] {
			t.Errorf("%s: %d VNs, want %d", app.Name, got, want[app.Name])
		}
	}
}

func TestSpaceSizesNontrivial(t *testing.T) {
	// Table I reports millions-to-trillions of candidates; ours are scaled
	// but must remain far too large to enumerate.
	apps := allApps(t, 1)
	for _, app := range apps {
		if app.Space.Size().BitLen() < 19 { // > ~500k models
			t.Errorf("%s: space size %v too small", app.Name, app.Space.Size())
		}
	}
}

func TestPaperTrainingConfig(t *testing.T) {
	// Batch sizes (Section VII-A) and early-stop thresholds (VIII-B).
	batch := map[string]int{"cifar10": 64, "mnist": 64, "nt3": 32, "uno": 32}
	delta := map[string]float64{"cifar10": 0.01, "mnist": 0.001, "nt3": 0.005, "uno": 0.02}
	apps := allApps(t, 1)
	for _, app := range apps {
		if app.Space.BatchSize != batch[app.Name] {
			t.Errorf("%s batch = %d, want %d", app.Name, app.Space.BatchSize, batch[app.Name])
		}
		if app.Space.EarlyStopDelta != delta[app.Name] {
			t.Errorf("%s delta = %v, want %v", app.Name, app.Space.EarlyStopDelta, delta[app.Name])
		}
		// Partial budgets are scaled per DESIGN.md substitution #2 so one
		// estimation unit approximates comparable optimizer progress.
		partial := map[string]int{"cifar10": 1, "mnist": 1, "nt3": 2, "uno": 3}
		if app.PartialEpochs != partial[app.Name] || app.FullMaxEpochs != 20 || app.EarlyStopPatience != 2 {
			t.Errorf("%s budgets = %d/%d/%d", app.Name, app.PartialEpochs, app.FullMaxEpochs, app.EarlyStopPatience)
		}
	}
}

// TestRandomCandidatesBuildAndTrain is the load-bearing integration test:
// every random architecture in every space must materialize into a network
// that survives one training epoch.
func TestRandomCandidatesBuildAndTrain(t *testing.T) {
	apps := allApps(t, 2)
	rng := rand.New(rand.NewSource(99))
	for _, app := range apps {
		for i := 0; i < 8; i++ {
			arch := app.Space.Random(rng)
			net, err := app.Space.Build(arch, rand.New(rand.NewSource(int64(i))))
			if err != nil {
				t.Fatalf("%s %s: build: %v", app.Name, arch, err)
			}
			h, err := nn.Fit(net, app.Space.Loss, app.Space.Metric, nn.NewAdam(),
				app.Dataset.Train, app.Dataset.Val,
				nn.FitConfig{Epochs: 1, BatchSize: 8, RNG: rng})
			if err != nil {
				t.Fatalf("%s %s: fit: %v", app.Name, arch, err)
			}
			if h.EpochsRun != 1 {
				t.Fatalf("%s: ran %d epochs", app.Name, h.EpochsRun)
			}
		}
	}
}

func TestUnoUsesRegression(t *testing.T) {
	app, err := New("uno", 1, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := app.Space.Loss.(nn.MAE); !ok {
		t.Fatalf("uno loss = %T, want MAE", app.Space.Loss)
	}
	if _, ok := app.Space.Metric.(nn.R2); !ok {
		t.Fatalf("uno metric = %T, want R2", app.Space.Metric)
	}
	if len(app.Dataset.InputShapes) != 4 {
		t.Fatalf("uno inputs = %d, want 4", len(app.Dataset.InputShapes))
	}
}

func TestUnoAllNodesShareChoiceSet(t *testing.T) {
	// Section VII-A / Fig 5 discussion: every Uno variable node offers the
	// same operation set.
	app, err := New("uno", 1, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	first := app.Space.Nodes[0]
	for _, n := range app.Space.Nodes[1:] {
		if len(n.Ops) != len(first.Ops) {
			t.Fatalf("node %s has %d ops, want %d", n.Name, len(n.Ops), len(first.Ops))
		}
		for i := range n.Ops {
			if n.Ops[i].Label != first.Ops[i].Label {
				t.Fatalf("node %s op %d = %q, want %q", n.Name, i, n.Ops[i].Label, first.Ops[i].Label)
			}
		}
	}
}

func TestCIFARHasVGGBlockStructure(t *testing.T) {
	app, err := New("cifar10", 1, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// 3 blocks × (conv, pool, bn) × 2 then 3 dense nodes.
	kinds := []string{"conv", "pool", "bn"}
	for blk := 0; blk < 3; blk++ {
		for rep := 0; rep < 2; rep++ {
			for k, kind := range kinds {
				idx := blk*6 + rep*3 + k
				name := app.Space.Nodes[idx].Name
				if want := kind; !containsSuffix(name, want) {
					t.Fatalf("node %d = %q, want suffix %q", idx, name, want)
				}
			}
		}
	}
}

func containsSuffix(name, suffix string) bool {
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}

// TestCandidatesOfOneSpaceTrainConcurrently is the two-evaluator case of a
// search: two candidates built from one Space — sharing its loss value, its
// metric and the dataset — train side by side (under -race in CI) and each
// ends, bit for bit, where it ends alone. Networks keep their step buffers,
// so anything two of them shared would show here.
func TestCandidatesOfOneSpaceTrainConcurrently(t *testing.T) {
	app, err := New("nt3", 2, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	archRNG := rand.New(rand.NewSource(41))
	archs := []search.Arch{app.Space.Random(archRNG), app.Space.Random(archRNG)}
	fit := func(i int) []float64 {
		rng := rand.New(rand.NewSource(int64(i)))
		net, err := app.Space.Build(archs[i], rng)
		if err != nil {
			t.Error(err)
			return nil
		}
		h, err := nn.Fit(net, app.Space.Loss, app.Space.Metric, nn.NewAdam(),
			app.Dataset.Train, app.Dataset.Val, nn.FitConfig{Epochs: 2, BatchSize: 8, RNG: rng})
		if err != nil {
			t.Error(err)
			return nil
		}
		out := append([]float64(nil), h.ValScore...)
		for _, p := range net.Params() {
			out = append(out, p.W.Data...)
		}
		return out
	}
	alone := [][]float64{fit(0), fit(1)}
	together := make([][]float64, 2)
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			together[i] = fit(i)
		}(i)
	}
	wg.Wait()
	for i := range alone {
		if len(alone[i]) == 0 || len(alone[i]) != len(together[i]) {
			t.Fatalf("candidate %d: %d values alone, %d beside the other", i, len(alone[i]), len(together[i]))
		}
		for j, v := range alone[i] {
			if math.Float64bits(v) != math.Float64bits(together[i][j]) {
				t.Fatalf("candidate %d differs at value %d when trained beside the other: %v, alone %v", i, j, together[i][j], v)
			}
		}
	}
}
