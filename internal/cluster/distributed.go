package cluster

import (
	"context"
	"errors"
	"fmt"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/evo"
	"swtnas/internal/nas"
	"swtnas/internal/tensor"
	"swtnas/internal/trace"
)

// Binding makes a Coordinator the nas.Executor of one search: it turns each
// nas.Task into an RPCTask, reads the provider checkpoint from the search's
// store, saves the returned checkpoint into it, and hands the nas.Result to
// the scheduler — the paper's Figure 6 data flow with TCP workers in place
// of Ray evaluators. Journal, resume, proxy pre-filter, checkpoint GC and
// Pareto mode are whatever the search's nas.Config carries. A coordinator
// serves one search at a time: task ids are its candidate numbers.
type Binding struct {
	c        *Coordinator
	tmpl     RPCTask
	transfer bool // tmpl.Matcher names a transfer scheme, not the baseline
	store    *checkpoint.CASStore
}

// Bind returns the coordinator's binding to one search. Every task ships as
// a copy of tmpl (application, dataset, matcher, dtype and the worker-side
// overrides) with the candidate's ID, Arch, Seed and Parent filled in; store
// must be the search's nas.Config.Store.
func (c *Coordinator) Bind(tmpl RPCTask, store *checkpoint.CASStore) *Binding {
	matcher, _ := core.MatcherByName(tmpl.Matcher) // an unknown name fails on the worker
	return &Binding{c: c, tmpl: tmpl, transfer: matcher != nil, store: store}
}

// Submit implements nas.Executor. The evaluation function is not used: the
// worker runs the same nas.Evaluator on its side of the wire. Tasks already
// shipped are not recalled on cancellation; their results drain like any
// in-flight evaluation's.
func (b *Binding) Submit(ctx context.Context, t nas.Task, _ nas.EvalFunc, out chan<- nas.Result) {
	rt := b.tmpl
	rt.ID, rt.Arch, rt.Seed = t.ID, t.Arch, t.Seed
	err := ctx.Err()
	if err == nil && b.transfer && t.ParentID >= 0 {
		if rt.Parent, err = b.store.LoadEncoded(nas.CandidateID(t.ParentID)); err != nil {
			err = fmt.Errorf("cluster: loading provider %d: %w", t.ParentID, err)
		}
	}
	if err != nil {
		out <- nas.Result{Record: trace.Record{ID: t.ID}, Err: err}
		return
	}
	b.c.enqueue(rt, func(rr RPCResult) { out <- b.result(rr) })
}

// result hands the worker's record to the scheduler, overwriting only what
// this side of the wire owns: the checkpoint size as stored (nas.Run restores
// the task's identity itself — a provider's candidate number does not travel
// with its bytes). A Failed result (retry budget spent, or a diverged
// candidate) keeps its mark and has nothing to save, so nas.Run applies the
// failure rule; a scored one is saved into the store first, where later
// tasks find it as a provider.
func (b *Binding) result(rr RPCResult) nas.Result {
	res := nas.Result{Record: rr.Record}
	if rr.Failed {
		res.Err = errors.New(rr.Err)
		return res
	}
	if err := b.store.SaveEncoded(nas.CandidateID(rr.ID), rr.Checkpoint); err != nil {
		res.Err = fmt.Errorf("cluster: storing candidate %d: %w", rr.ID, err)
		return res
	}
	res.CheckpointBytes = int64(len(rr.Checkpoint))
	return res
}

// DistConfig parameterizes RunDistributed.
type DistConfig struct {
	// App / DataSeed / TrainN / ValN identify the application; workers
	// regenerate the same dataset deterministically.
	App          string
	DataSeed     int64
	TrainN, ValN int
	// Matcher ("", "LP" or "LCS") and DType ("", "f64" or "f32") ship with
	// every task as RPCTask.Matcher and RPCTask.DType.
	Matcher, DType string
	// Budget is the number of candidates to evaluate.
	Budget int
	// Outstanding caps in-flight tasks; set it to at least the number of
	// connected workers to keep them busy. Defaults to 2.
	Outstanding int
	// Seed drives proposals and per-candidate seeds.
	Seed int64
	// N and S are the evolution population/sample sizes (0 -> paper
	// defaults 64/32).
	N, S int
	// Progress, when set, is invoked synchronously with each trace record as
	// it is appended, scored candidates and terminal failures (Failed set)
	// alike.
	Progress func(trace.Record)
}

// RunDistributed runs a regularized-evolution search with an in-memory
// store on the coordinator's workers: the mapping DistConfig → nas.Config
// with a Binding as Executor → nas.Run. Callers that want a journal, a disk
// store or another strategy build that nas.Config themselves.
func RunDistributed(c *Coordinator, cfg DistConfig) (*trace.Trace, error) {
	dt, err := tensor.ParseDType(cfg.DType)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	matcher, ok := core.MatcherByName(cfg.Matcher)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown matcher %q", cfg.Matcher)
	}
	app, err := apps.New(cfg.App, cfg.DataSeed, apps.Config{Data: data.Config{TrainN: cfg.TrainN, ValN: cfg.ValN}})
	if err != nil {
		return nil, err
	}
	orDefault(&cfg.Outstanding, 2)
	// The memory backend keeps the encoded bytes as they came off the wire, so
	// saving a result and shipping it later as a provider re-encode and copy
	// nothing.
	store := checkpoint.NewCASMemStore()
	b := c.Bind(RPCTask{
		App: cfg.App, DataSeed: cfg.DataSeed, TrainN: cfg.TrainN, ValN: cfg.ValN,
		Matcher: cfg.Matcher, DType: cfg.DType,
	}, store)
	ncfg := nas.Config{
		App:      app,
		Strategy: evo.NewRegularizedEvolution(app.Space, cfg.N, cfg.S),
		Matcher:  matcher,
		DType:    dt,
		Store:    store,
		Workers:  cfg.Outstanding,
		Budget:   cfg.Budget,
		Seed:     cfg.Seed,
		Executor: b,
	}
	if cfg.Progress != nil {
		ncfg.Progress = func(r nas.Result) { cfg.Progress(r.Record) }
	}
	return nas.Run(context.Background(), ncfg)
}
