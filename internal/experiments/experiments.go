// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VIII). Each experiment is a Suite method that runs the
// required searches/trainings, prints the paper-style rows to a writer, and
// returns structured results for programmatic checks.
//
// Searches are expensive, so the Suite caches "campaigns" (one search per
// scheme × seed) and derived phase-2 full trainings; Fig 7/8/9/10/11 and
// Tables III/IV all share them, mirroring how the paper derives those
// results from the same five NAS runs.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/evo"
	"swtnas/internal/nas"
	"swtnas/internal/nn"
	"swtnas/internal/search"
	"swtnas/internal/tensor"
	"swtnas/internal/trace"
)

// Config scales the reproduction. Paper() matches the paper's counts;
// Quick() is the laptop/bench scale recorded in EXPERIMENTS.md.
type Config struct {
	// Seed is the base seed; repetition i uses Seed+i.
	Seed int64
	// Seeds is the number of repeated experiments (paper: 5).
	Seeds int
	// Budget is the candidates per search (paper: 400).
	Budget int
	// Workers is the evaluator-pool size per search.
	Workers int
	// PopN / PopS are the evolution population and sample sizes
	// (paper: 64 / 32).
	PopN, PopS int
	// TrainN / ValN override dataset sizes (0 = package defaults).
	TrainN, ValN int
	// Pairs is the provider/receiver pair count of Fig 4 (paper: 1000).
	Pairs int
	// TraceBudget / TracePairs drive Fig 2 (paper: >=672 candidates,
	// 10000 sampled pairs).
	TraceBudget, TracePairs int
	// TopK is the phase-2 full-training set size (paper: 10).
	TopK int
	// TauSamples is the per-search sample fully trained for Fig 9
	// (paper: 100).
	TauSamples int
	// MaxD and PairsPerD shape the Fig 5 distance buckets.
	MaxD, PairsPerD int
	// FullEpochs caps phase-2 full training (0 -> the app's 20).
	FullEpochs int
	// Apps selects the applications (default: all four).
	Apps []string
}

// Paper returns the paper-scale configuration.
func Paper() Config {
	return Config{
		Seed: 1, Seeds: 5, Budget: 400, Workers: 1, PopN: 64, PopS: 32,
		Pairs: 1000, TraceBudget: 672, TracePairs: 10000,
		TopK: 10, TauSamples: 100, MaxD: 6, PairsPerD: 150,
		Apps: data.Names(),
	}
}

// Quick returns the reduced scale (cmd/experiments -scale quick) so the whole
// evaluation regenerates in minutes on one CPU core.
func Quick() Config {
	return Config{
		Seed: 1, Seeds: 2, Budget: 56, Workers: 1, PopN: 16, PopS: 8,
		Pairs: 16, TraceBudget: 96, TracePairs: 1500,
		TopK: 3, TauSamples: 8, MaxD: 4, PairsPerD: 6,
		Apps: data.Names(),
	}
}

// Schemes lists the candidate-estimation schemes in the paper's order.
func Schemes() []string { return []string{"baseline", "LP", "LCS"} }

// Campaign is the cached outcome of one scheme's repeated searches on one
// application.
type Campaign struct {
	App    *apps.App
	Scheme string
	// Traces and Stores are indexed by repetition.
	Traces []*trace.Trace
	Stores []checkpoint.Store
}

// Suite runs and caches experiments for one configuration.
type Suite struct {
	Cfg Config

	mu     sync.Mutex
	apps   map[string]*apps.App
	camps  map[string]*Campaign
	phase2 []Phase2Model
}

// NewSuite creates an empty suite.
func NewSuite(cfg Config) *Suite {
	if len(cfg.Apps) == 0 {
		cfg.Apps = data.Names()
	}
	return &Suite{Cfg: cfg, apps: map[string]*apps.App{}, camps: map[string]*Campaign{}}
}

// App returns (building once) the named application.
func (s *Suite) App(name string) (*apps.App, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appLocked(name)
}

func (s *Suite) appLocked(name string) (*apps.App, error) {
	if app, ok := s.apps[name]; ok {
		return app, nil
	}
	app, err := apps.New(name, s.Cfg.Seed, apps.Config{Data: data.Config{TrainN: s.Cfg.TrainN, ValN: s.Cfg.ValN}})
	if err != nil {
		return nil, err
	}
	s.apps[name] = app
	return app, nil
}

// Campaign returns (running once) the searches for app × scheme.
func (s *Suite) Campaign(appName, scheme string) (*Campaign, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := appName + "/" + scheme
	if c, ok := s.camps[key]; ok {
		return c, nil
	}
	app, err := s.appLocked(appName)
	if err != nil {
		return nil, err
	}
	c := &Campaign{App: app, Scheme: scheme}
	for rep := 0; rep < s.Cfg.Seeds; rep++ {
		tr, store, err := s.search(app, scheme, rep, tensor.F64)
		if err != nil {
			return nil, err
		}
		c.Traces = append(c.Traces, tr)
		c.Stores = append(c.Stores, store)
	}
	s.camps[key] = c
	return c, nil
}

// search runs repetition rep of one scheme's search on app, training in
// dt, into a fresh in-memory store.
func (s *Suite) search(app *apps.App, scheme string, rep int, dt tensor.DType) (*trace.Trace, checkpoint.Store, error) {
	matcher, ok := core.MatcherByName(scheme)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown scheme %q", scheme)
	}
	store := checkpoint.NewCASMemStore()
	tr, err := nas.Run(context.Background(), nas.Config{
		App:      app,
		Strategy: evo.NewRegularizedEvolution(app.Space, s.Cfg.PopN, s.Cfg.PopS),
		Matcher:  matcher,
		Store:    store,
		Workers:  s.Cfg.Workers,
		Budget:   s.Cfg.Budget,
		Seed:     s.Cfg.Seed + int64(rep),
		DType:    dt,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s/%s/%s rep %d: %w", app.Name, scheme, dt, rep, err)
	}
	return tr, store, nil
}

// shortestMakespan returns the duration of the shortest run across the
// schemes and repetitions of an app — the fairness cutoff of Section
// VIII-C ("all the approaches have the same time budget"), which Fig 7
// plots up to and phase 2 selects within.
func (s *Suite) shortestMakespan(app string) (time.Duration, error) {
	shortest := time.Duration(0)
	for _, scheme := range Schemes() {
		c, err := s.Campaign(app, scheme)
		if err != nil {
			return 0, err
		}
		for _, tr := range c.Traces {
			if n := len(tr.Records); n > 0 {
				if mk := tr.Records[n-1].CompletedAt; shortest == 0 || mk < shortest {
					shortest = mk
				}
			}
		}
	}
	return shortest, nil
}

// buildReceiver constructs a candidate with a deterministic fresh
// initialization; its dropout masks continue the same stream.
func buildReceiver(app *apps.App, arch search.Arch, seed int64) (*nn.Network, error) {
	net, _, err := app.Space.BuildSeeded(arch, seed)
	return net, err
}

// train is every partial training run of the experiments: epochs passes
// over the app's training set at its batch size, shuffled by an RNG seeded
// with seed. Full training, early-stopped or not, is nas.FullyTrain.
func train(app *apps.App, net *nn.Network, epochs int, seed int64) (*nn.History, error) {
	cfg := nn.FitConfig{Epochs: epochs, BatchSize: app.Space.BatchSize, RNG: rand.New(rand.NewSource(seed))}
	return nn.Fit(net, app.Space.Loss, app.Space.Metric, nn.NewAdam(), app.Dataset.Train, app.Dataset.Val, cfg)
}

// fullTrain is nas.FullyTrain for one searched candidate at the full epoch
// budget (Config.FullEpochs, else the app's): rec's architecture built from
// seed, its trained weights reloaded from store, trained with RNG seed+1,
// early-stopped or not.
func (s *Suite) fullTrain(app *apps.App, store checkpoint.Store, rec trace.Record, seed int64, earlyStop bool) (*nn.History, error) {
	epochs := app.FullMaxEpochs
	if s.Cfg.FullEpochs > 0 {
		epochs = s.Cfg.FullEpochs
	}
	return nas.FullyTrain(app, store, rec.ID, rec.Arch, seed, epochs, earlyStop)
}

// mutateK returns a copy of arch re-choosing exactly k distinct variable
// nodes, so the architecture distance to arch is exactly k (Fig 5 buckets).
func mutateK(space *search.Space, arch search.Arch, k int, rng *rand.Rand) (search.Arch, error) {
	var mutable []int
	for i, n := range space.Nodes {
		if len(n.Ops) > 1 {
			mutable = append(mutable, i)
		}
	}
	if k > len(mutable) {
		return nil, fmt.Errorf("experiments: cannot mutate %d of %d mutable nodes", k, len(mutable))
	}
	child := arch.Clone()
	perm := rng.Perm(len(mutable))
	for _, pi := range perm[:k] {
		i := mutable[pi]
		for {
			c := rng.Intn(len(space.Nodes[i].Ops))
			if c != arch[i] {
				child[i] = c
				break
			}
		}
	}
	return child, nil
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// line prints a formatted row, ignoring write errors on best-effort report
// writers.
func line(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format+"\n", args...)
}
