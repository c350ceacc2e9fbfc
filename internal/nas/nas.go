// Package nas is the distributed NAS framework of the paper's Section VI —
// the DeepHyper-equivalent. A scheduler runs the search strategy and feeds
// candidate-evaluation tasks to a pool of evaluators; each evaluator builds
// the candidate network, optionally warm-starts it from its parent's
// checkpoint via LP/LCS weight transfer (Section VII-C steps 1-4), trains it
// for the partial-training budget, scores it, and checkpoints it.
//
// Run is the one scheduler. Its loop takes completions from an Executor — or,
// on a resumed run, from the recovered journal until its records run out —
// and does everything else (issue order, checkpoint GC, running best, trace,
// journal, Progress) once for both. There are two executors: a SharedPool
// client, in-process (a search without one runs on a private pool), and a
// cluster.Coordinator binding over TCP. A finished candidate is a
// trace.Record from the evaluator onward: Result embeds it.
package nas

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/evo"
	"swtnas/internal/nn"
	"swtnas/internal/obs"
	"swtnas/internal/parallel"
	"swtnas/internal/proxy"
	"swtnas/internal/resilience"
	"swtnas/internal/search"
	"swtnas/internal/tensor"
	"swtnas/internal/trace"
)

// Search telemetry (internal/obs, disabled by default): per-candidate
// evaluation latency end to end (build + transfer + train + checkpoint),
// the wait between a task being issued and an evaluator picking it up
// (evaluator-utilization signal), and the warm-start/scratch split of the
// paper's transfer-coverage tables.
var (
	mEvalSeconds      = obs.GetHistogram("nas.eval.seconds", obs.DurationBuckets)
	mQueueWaitSeconds = obs.GetHistogram("nas.queue.wait.seconds", obs.DurationBuckets)
	mTransferSeconds  = obs.GetHistogram("nas.transfer.seconds", obs.DurationBuckets)
	mCandTransfer     = obs.GetCounter("nas.candidates.transfer")
	mCandScratch      = obs.GetCounter("nas.candidates.scratch")
	mCandErrors       = obs.GetCounter("nas.candidates.errors")
	mCandResumed      = obs.GetCounter("nas.candidates.resumed")
)

// CandidateID renders the checkpoint id of a candidate number.
func CandidateID(id int) string { return fmt.Sprintf("cand-%06d", id) }

// Task is one candidate evaluation.
type Task struct {
	// ID is the candidate number within the search.
	ID int
	// Arch is the candidate architecture.
	Arch search.Arch
	// ParentID names the provider candidate for weight transfer,
	// -1 for training from scratch.
	ParentID int
	// Seed makes the candidate's initialization and shuffling
	// reproducible.
	Seed int64
	// IssuedAt is stamped by the scheduler when the task is queued; the
	// evaluator derives queue-wait telemetry from it.
	IssuedAt time.Time
	// ProxyScore is the admission score the proxy pre-filter attached to
	// the proposal (0 without a filter); scheduler metadata only.
	ProxyScore float64
}

// Result is the outcome of one evaluation: the candidate's trace record — the
// one representation of a finished candidate, filled by the evaluator and
// completed by the scheduler (CompletedAt, ProxyScore, FailReason; it also
// restores Arch and ParentID from the task it issued, so an executor's error
// result need carry only the ID) — plus what is not a fact about the
// candidate.
type Result struct {
	trace.Record
	// BestScore is filled by the scheduler: the best score of any
	// candidate completed so far, including this one (0 while none has
	// scored). Progress callbacks use it for whole-search early stopping.
	BestScore float64
	// Resumed marks a candidate replayed from a crash-resume journal
	// rather than evaluated in this process.
	Resumed bool
	// Err is the evaluation error. With Failed unset it aborts the run. The
	// coordinator binding sets Failed once a task's retry budget is spent
	// (Err is the last cause), and the Evaluator sets it on a candidate that
	// diverged — a non-finite score, or a non-finite weight — which it does
	// not save: Run records such a result as a Failed trace record whose
	// FailReason is Err's text, reports it to the strategy as a Failed
	// member (ranked below every scored one, never a provider), and
	// continues. A pool evaluation that errors or panics is never Failed.
	Err error
}

// The failure reasons of a candidate whose training diverged: to a
// non-finite score, or to a non-finite weight under a finite score.
var (
	errNonFinite       = errors.New("non-finite score")
	errNonFiniteWeight = errors.New("non-finite weight")
)

// diverged returns why a trained candidate must not be saved, or nil.
func diverged(score float64, m *checkpoint.Model) error {
	if math.IsNaN(score) || math.IsInf(score, 0) {
		return errNonFinite
	}
	for _, g := range m.Groups {
		for _, t := range g.Tensors {
			for _, v := range t.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return errNonFiniteWeight
				}
			}
		}
	}
	return nil
}

// errResult is the result of a task that ended without a candidate record.
func errResult(t Task, err error) Result {
	return Result{Record: trace.Record{ID: t.ID}, Err: err}
}

// Evaluator scores candidates for one application. An Evaluator is
// stateless between calls except for the shared checkpoint store, so any
// number of Evaluate calls may run concurrently. It is the one evaluation
// body of the repo: Run's executors call it in-process, cluster.Worker calls
// it behind the RPC envelope.
type Evaluator struct {
	// App supplies the space, dataset and training budget (PartialEpochs).
	App *apps.App
	// Matcher enables weight transfer; nil trains every candidate from
	// scratch (the paper's baseline).
	Matcher core.Matcher
	// Store persists candidate checkpoints and serves provider reads.
	Store checkpoint.Store
	// DType selects the training element type. Candidates are always built
	// and weight-transferred in float64 (the search operators, init RNG
	// streams and transfer engine are dtype-invariant that way); with
	// tensor.F32 the finished network is converted once before Fit and the
	// checkpoint is stored natively in float32. The zero value trains in
	// float64 as always. See DESIGN.md §14.
	DType tensor.DType
}

// Evaluate runs one candidate end to end. Transfer failures are not fatal:
// a receiver that cannot be warm-started trains from its fresh weights,
// like the paper's non-transferable pairs. It is EvaluateCtx with a
// background context.
func (e *Evaluator) Evaluate(task Task) Result {
	return e.EvaluateCtx(context.Background(), task)
}

// EvaluateCtx is Evaluate under a context: cancellation stops the
// candidate's training between minibatches (see nn.FitConfig.Context) and
// surfaces as a Result whose Err wraps the context error.
func (e *Evaluator) EvaluateCtx(ctx context.Context, task Task) Result {
	start := time.Now()
	res := e.evaluate(ctx, task)
	res.EvalTime = time.Since(start)
	if !task.IssuedAt.IsZero() {
		res.QueueWait = start.Sub(task.IssuedAt)
	}
	if obs.Enabled() {
		mEvalSeconds.ObserveDuration(res.EvalTime)
		if !task.IssuedAt.IsZero() {
			mQueueWaitSeconds.ObserveDuration(res.QueueWait)
		}
		switch {
		case res.Err != nil:
			mCandErrors.Inc()
		case res.TransferCopied > 0:
			mCandTransfer.Inc()
		default:
			mCandScratch.Inc()
		}
	}
	return res
}

// evaluate is EvaluateCtx without the telemetry envelope.
func (e *Evaluator) evaluate(ctx context.Context, task Task) Result {
	res := Result{Record: trace.Record{ID: task.ID, Arch: task.Arch, ParentID: task.ParentID}}
	net, rng, err := e.App.Space.BuildSeeded(task.Arch, task.Seed)
	if err != nil {
		res.Err = fmt.Errorf("nas: building candidate %d: %w", task.ID, err)
		return res
	}
	res.Params = net.ParamCount()

	if e.Matcher != nil && task.ParentID >= 0 {
		t := mTransferSeconds.Start()
		parent, err := e.Store.Load(CandidateID(task.ParentID))
		if err != nil {
			res.Err = fmt.Errorf("nas: loading provider %d: %w", task.ParentID, err)
			return res
		}
		stats, err := core.Transfer(e.Matcher, parent.Sources(), net)
		if err != nil {
			res.Err = fmt.Errorf("nas: transferring into candidate %d: %w", task.ID, err)
			return res
		}
		t.Stop()
		res.TransferCopied = stats.Copied
	}

	fitCfg := nn.FitConfig{Context: ctx, Epochs: e.App.PartialEpochs, BatchSize: e.App.Space.BatchSize, RNG: rng}
	var ckpt *checkpoint.Model
	start := time.Now()
	if e.DType == tensor.F32 {
		score, c, err := e.fitF32(task.Arch, net, fitCfg)
		res.TrainTime = time.Since(start)
		if err != nil {
			res.Err = fmt.Errorf("nas: training candidate %d (f32): %w", task.ID, err)
			return res
		}
		res.Score, ckpt = score, c
	} else {
		h, err := nn.Fit(net, e.App.Space.Loss, e.App.Space.Metric, nn.NewAdam(),
			e.App.Dataset.Train, e.App.Dataset.Val, fitCfg)
		res.TrainTime = time.Since(start)
		if err != nil {
			res.Err = fmt.Errorf("nas: training candidate %d: %w", task.ID, err)
			return res
		}
		res.Score = h.FinalScore()
		ckpt = checkpoint.FromNetwork(task.Arch, res.Score, net)
	}
	// A diverged candidate ends like a spent retry budget, as a Failed
	// record: its score must not reach a tournament, the surrogate or a
	// Pareto front (nor a NaN the trace's JSON). It is never saved either:
	// nothing would ever collect its checkpoint, and a NaN weight would
	// reach every child through transfer.
	if err := diverged(res.Score, ckpt); err != nil {
		res.Failed, res.Err, res.Score = true, err, 0
		return res
	}
	n, err := e.Store.Save(CandidateID(task.ID), ckpt)
	if err != nil {
		res.Err = fmt.Errorf("nas: checkpointing candidate %d: %w", task.ID, err)
		return res
	}
	res.CheckpointBytes = n
	return res
}

// fitF32 is the float32 leg of evaluate: the candidate built (and possibly
// warm-started) in float64 is converted exactly once, trained natively in
// float32, and snapshotted into a tensor.F32-tagged checkpoint that stores
// at 4 bytes per element. The dataset conversion is cached on the dataset.
func (e *Evaluator) fitF32(arch search.Arch, net *nn.Network, cfg nn.FitConfig) (float64, *checkpoint.Model, error) {
	net32, err := nn.ConvertNetwork[float32](net)
	if err != nil {
		return 0, nil, err
	}
	loss32, err := nn.ConvertLoss[float32](e.App.Space.Loss)
	if err != nil {
		return 0, nil, err
	}
	metric32, err := nn.ConvertMetric[float32](e.App.Space.Metric)
	if err != nil {
		return 0, nil, err
	}
	train32, val32 := e.App.Dataset.F32()
	h, err := nn.Fit(net32, loss32, metric32, nn.NewAdamOf[float32](), train32, val32, cfg)
	if err != nil {
		return 0, nil, err
	}
	score := h.FinalScore()
	return score, checkpoint.FromNetworkOf(arch, score, net32), nil
}

// FullyTrain is NAS phase 2 for one searched candidate: arch built from
// seed, the candidate's trained weights restored from its checkpoint in
// store, then trained for epochs at the app's batch size with RNG seed+1,
// stopped early by the paper's rule (Section VIII-B, the app's delta and
// patience) when earlyStop is set. An F32-tagged checkpoint restores through
// exact widening, so phase 2 runs in f64 whatever dtype the search ran.
func FullyTrain(app *apps.App, store checkpoint.Store, id int, arch search.Arch, seed int64, epochs int, earlyStop bool) (*nn.History, error) {
	ckpt, err := store.Load(CandidateID(id))
	if err != nil {
		return nil, fmt.Errorf("nas: loading candidate %d: %w", id, err)
	}
	net, _, err := app.Space.BuildSeeded(arch, seed)
	if err != nil {
		return nil, err
	}
	if err := ckpt.RestoreInto(net); err != nil {
		return nil, err
	}
	cfg := nn.FitConfig{Epochs: epochs, BatchSize: app.Space.BatchSize, RNG: rand.New(rand.NewSource(seed + 1))}
	if earlyStop {
		cfg.EarlyStopDelta, cfg.EarlyStopPatience = app.Space.EarlyStopDelta, app.EarlyStopPatience
	}
	return nn.Fit(net, app.Space.Loss, app.Space.Metric, nn.NewAdam(), app.Dataset.Train, app.Dataset.Val, cfg)
}

// Config parameterizes a search run.
type Config struct {
	// App is the application under search.
	App *apps.App
	// Strategy proposes candidates; nil defaults to regularized evolution
	// with the paper's N=64 / S=32.
	Strategy evo.Strategy
	// Matcher selects the estimation scheme: nil baseline, core.LP{},
	// core.LCS{}.
	Matcher core.Matcher
	// DType selects the training element type for every evaluation
	// (tensor.F64 default, tensor.F32 for native float32 training — see
	// Evaluator.DType). Run rejects invalid values.
	DType tensor.DType
	// Store defaults to an in-memory store.
	Store checkpoint.Store
	// Workers is the evaluator-pool size (the per-node GPU count of the
	// paper's Ray setup); defaults to 1. It fixes what a seed means: how
	// many results may be outstanding when a proposal is drawn.
	Workers int
	// KernelWorkers caps the intra-candidate compute-kernel parallelism:
	// it sets the process-wide internal/parallel pool limit before the
	// search starts, so concurrent candidate evaluations partition the
	// machine's cores instead of oversubscribing them (e.g. Workers=4 on
	// a 16-core node pairs naturally with KernelWorkers=4).
	//
	// When 0 and Workers > 1, the private pool's core split sets the limit
	// to max(1, GOMAXPROCS/Workers) for the duration of the run (restoring
	// the previous limit when the pool closes), unless the SWTNAS_WORKERS
	// environment variable pins an explicit pool size. With a single
	// evaluator the limit is left where it is, and on the private pool it is
	// also the search's cores for lookahead (Run): up to that many small
	// candidates run at once. The kernel pool's caller-runs handoff keeps
	// oversubscription safe either way.
	KernelWorkers int
	// Budget is the number of candidates to evaluate.
	Budget int
	// Seed drives proposals and per-candidate seeds.
	Seed int64
	// Progress, when non-nil, is invoked from the scheduler goroutine for
	// every completed candidate, in commit order (id order at one evaluator,
	// completion order above), after the result has been recorded in the
	// trace (CompletedAt and the running BestScore are already set, so
	// callers can implement whole-search early stopping by cancelling the
	// context when BestScore plateaus). On a resumed run the journaled prefix
	// is streamed first, each replayed candidate marked Resumed, so a
	// progress feed always sees the full history. It must not call back into
	// the search; a slow callback delays issuing the next candidate but never
	// corrupts the run.
	Progress func(Result)
	// Executor, when non-nil, runs the candidate evaluations — a
	// SharedPool client when this search shares evaluator slots with
	// others, or a cluster.Coordinator binding. Nil runs the search on a
	// private SharedPool of Workers slots that Run owns and closes when it
	// returns (a run that ends normally or on cancellation has drained every
	// task by then; an aborted one leaves its queued tasks to Close's
	// cancellation). With an Executor set, Workers still fixes what a seed
	// means, and the executor sizes real concurrency and the kernel split. At
	// one evaluator a SharedPool client looks ahead on the pool's slots (Run),
	// queued behind other clients' tasks by the fair scheduler; a coordinator
	// binding runs one task at a time.
	Executor Executor
	// Journal, when non-nil, receives an append for every completed
	// candidate before Progress fires, so a crashed run can resume from its
	// last fsynced candidate. The append is a small manifest record — the
	// checkpoint it names already lives in the store — so Store must then be
	// a *checkpoint.CASStore with durable blobs (checkpoint.NewCASDiskStore);
	// Run rejects any other pairing before the first proposal. A journal
	// write failure aborts the run: a search that silently stops journaling
	// would resume wrong.
	Journal *resilience.Journal
	// RetainTopK, when positive, garbage-collects the checkpoints of
	// candidates that have aged out of a RegularizedEvolution population and
	// fall outside the running top-K scores, as soon as no in-flight task
	// needs them as transfer provider, bounding store growth on long runs. Zero
	// keeps every checkpoint (required when the full trace's checkpoints
	// must stay loadable).
	RetainTopK int
	// Resume, when non-nil, is a recovered journal to replay before live
	// evaluation: the proposal stream is re-derived from Seed, journaled
	// candidates are recorded without re-evaluating (their checkpoints
	// restored into Store bit for bit), the strategy's population is
	// rebuilt in the original completion order, and evaluation continues
	// with the tasks that were in flight at the crash. Seed, Budget,
	// Workers and the strategy configuration must match the original run.
	Resume *resilience.Recovery
	// Prefilter, when non-nil, wraps Strategy with the proxy admission
	// filter: proposals are drawn in batches, scored without training, and
	// only the top fraction reaches an evaluator. Rejected proposals land
	// in the trace's Filtered list and OnFiltered. The filter's decisions
	// re-derive deterministically from Seed during journal replay, so
	// Resume needs the same Prefilter configuration as the original run.
	Prefilter *proxy.Prefilter
	// OnFiltered, when non-nil, is invoked from the scheduler goroutine
	// for every proposal the Prefilter rejects, after the rejection is
	// recorded in the trace. Ignored without Prefilter.
	OnFiltered func(trace.FilteredRecord)
}

// SchemeName renders the scheme label used across the evaluation.
func SchemeName(m core.Matcher) string {
	if m == nil {
		return "baseline"
	}
	return m.Name()
}

// Run executes a candidate-estimation phase and returns its trace. It is the
// one search loop: a SharedPool client and a cluster.Coordinator binding
// differ only in where Evaluator.EvaluateCtx runs. Evaluation errors, a
// panicking evaluation included, abort the run: every architecture in the
// shipped spaces is buildable, so an error indicates a real defect rather
// than a bad candidate. The exception is a result marked Failed (see
// Result.Err): it becomes a Failed trace record, joins the population below
// every scored member, and the search continues.
//
// A one-evaluator search looks ahead: while earlier candidates train it
// drafts the next proposal against the population as they will leave it
// (evo.DraftOf), starts it on an idle core when the draft holds none of them
// (and the trainable state in flight stays within lookaheadState), and holds
// it otherwise; a strategy that does not draft holds on all of them. Results
// commit in id order, so the search is the one-at-a-time loop's at any core
// count, a resumed one's included (DESIGN.md §8).
//
// Cancelling ctx stops the search promptly: evaluations in flight stop at
// the next minibatch boundary (their partial candidates are dropped, not
// recorded), queued tasks are skipped, and Run returns the partial trace of
// every candidate completed before cancellation together with ctx.Err()
// (at one evaluator, the id-order prefix of them; later ones are dropped
// with their checkpoints).
// All evaluator goroutines have stopped evaluating by the time Run returns.
// An executor that cancels tasks itself (a pool closed under the search)
// ends the search the same way, with the tasks' context error.
func Run(ctx context.Context, cfg Config) (*trace.Trace, error) {
	if cfg.App == nil {
		return nil, fmt.Errorf("nas: config needs an App")
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("nas: budget %d must be positive", cfg.Budget)
	}
	if !cfg.DType.Valid() {
		return nil, fmt.Errorf("nas: invalid dtype %d", uint8(cfg.DType))
	}
	store := cfg.Store
	if store == nil {
		store = checkpoint.NewCASMemStore()
	}
	// A journal record is a manifest: only a store that kept the objects
	// across the crash can resolve it again.
	manifests, _ := store.(*checkpoint.CASStore)
	if (cfg.Journal != nil || cfg.Resume != nil) && (manifests == nil || !manifests.DurableBlobs()) {
		return nil, fmt.Errorf("nas: a journaled search needs a checkpoint store with durable blobs (checkpoint.NewCASDiskStore), not %T", store)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > cfg.Budget {
		workers = cfg.Budget
	}
	if cfg.KernelWorkers > 0 {
		parallel.SetWorkers(cfg.KernelWorkers)
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = evo.NewRegularizedEvolution(cfg.App.Space, 0, 0)
	}
	// A one-evaluator search's cores: its kernel limit on its own pool, a
	// shared pool's slots (its fair queue decides when they run), and one on
	// a coordinator binding, whose idle workers Run does not know.
	slots := workers
	switch client, ok := cfg.Executor.(*PoolClient); {
	case workers > 1:
	case ok:
		slots = min(client.pool.Workers(), cfg.Budget)
	case cfg.Executor == nil:
		slots = min(parallel.Workers(), cfg.Budget)
	}
	exec := cfg.Executor
	if exec == nil {
		// The pool's core split is scoped to the run (Close restores the
		// limit); an explicit KernelWorkers stays pinned, as documented, and a
		// lone evaluator leaves the limit alone.
		pool := newSharedPool(PoolConfig{Workers: slots}, workers > 1 && cfg.KernelWorkers <= 0)
		defer pool.Close()
		exec, _ = pool.Register(ClientConfig{Concurrency: workers}) // a fresh pool has no quota to refuse
	}

	// Checkpoint GC: eviction from an aging population is the signal that a
	// candidate can never be a parent again; the hook feeds the collector,
	// the scheduler sweeps. Only regularized evolution evicts — other
	// strategies keep every checkpoint regardless of RetainTopK.
	var gc *candidateGC
	if st, ok := strategy.(*evo.RegularizedEvolution); ok && cfg.RetainTopK > 0 {
		gc = newCandidateGC(store, cfg.RetainTopK)
		st.OnEvict = func(ind evo.Individual) { gc.evict(ind.ID) }
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &trace.Trace{App: cfg.App.Name, Scheme: SchemeName(cfg.Matcher), Seed: cfg.Seed}

	// Proxy admission filter: wrap the strategy so the loop sees the filtered
	// proposal stream — on a resumed run the filter's deterministic decisions
	// re-derive from the seed instead of being read from the journal.
	// Rejections are recorded from the scheduler goroutine only (Propose is
	// never called concurrently), so the trace append is safe.
	if cfg.Prefilter != nil {
		cfg.Prefilter.SetOnFiltered(func(fc trace.FilteredRecord) {
			tr.Filtered = append(tr.Filtered, fc)
			if cfg.OnFiltered != nil {
				cfg.OnFiltered(fc)
			}
		})
		strategy = cfg.Prefilter.Wrap(strategy)
	}

	eval := &Evaluator{App: cfg.App, Matcher: cfg.Matcher, Store: store, DType: cfg.DType}
	results := make(chan Result, slots)

	// Crash resume: while journal records remain they are the loop's
	// completions, in the order the crashed run recorded them, and nothing is
	// evaluated. The proposal stream re-derives from the seed, so each record
	// must answer an open task; what the journal leaves open was in flight at
	// the crash and is submitted, in issue order, once it is exhausted.
	var replay []resilience.EvalRecord
	if cfg.Resume != nil {
		if replay = cfg.Resume.Records; len(replay) > cfg.Budget {
			return nil, fmt.Errorf("nas: journal holds %d candidates for a budget of %d", len(replay), cfg.Budget)
		}
		// The journaled checkpoints are hash-checked up front, on the kernel
		// pool's cores; one that fails is reported by its record's adoption.
		var mfs [][]byte
		for _, er := range replay {
			if !er.Record.Failed {
				mfs = append(mfs, er.Manifest)
			}
		}
		manifests.VerifyManifests(mfs, parallel.Workers())
	}
	open := map[int]Task{} // issued, not yet committed
	var held []int         // issued while replaying, in issue order
	issued := 0
	// Lookahead state. A result (with its journaled manifest, when replayed)
	// waits in done until every earlier candidate has committed (next is the
	// first that has not); draft is a proposal held on the pending candidates
	// it sampled, ready one held on lookaheadState; gap is the first
	// candidate a cancellation lost, after which nothing commits.
	type completion struct {
		Result
		manifest []byte
	}
	var (
		done   = map[int]completion{}
		next   int
		draft  *evo.Draft
		ready  *evo.Proposal // draft finished, held on the state bound
		params []int         // committed candidates' parameter counts, by id
		sum    int           // of params
		gap    = cfg.Budget
	)
	best, scored := 0.0, false
	// A task's context error — ctx's, or the executor's own (a pool closed
	// under the search) — stops issuing; Run drains and returns it.
	var cancelled error
	start := time.Now()
	// state is the trainable state lookahead counts a candidate at
	// (lookaheadState): its parent's parameters for a mutation, the mean of
	// the committed candidates' for a random proposal.
	state := func(parentID int) int {
		n := 0
		switch {
		case parentID >= 0:
			n = params[parentID]
		case len(params) > 0:
			n = sum / len(params)
		}
		return 4 * n * cfg.DType.Size()
	}
	submit := func(t Task) {
		if workers == 1 && t.ID > next {
			mAhead.Inc()
		}
		t.IssuedAt = time.Now()
		exec.Submit(ctx, t, eval.EvaluateCtx, results)
	}
	// issue makes p the next task; while it is open, or once it is
	// cancelled, its provider's checkpoint is not collected.
	issue := func(p evo.Proposal) {
		t := Task{ID: issued, Arch: p.Arch, ParentID: p.ParentID, Seed: TaskSeed(cfg.Seed, issued), ProxyScore: p.ProxyScore}
		issued++
		open[t.ID] = t
		if len(replay) > 0 {
			held = append(held, t.ID)
		} else {
			submit(t)
		}
	}
	// fill issues proposals while the issue rule allows, up to the budget and
	// until a task is cancelled (a replay issues regardless: its tasks are the
	// journal's). Up to slots candidates run, each proposal drafted against
	// the population as it will stand when the pending ones commit: at
	// Workers 1 every uncommitted candidate, so a draft that sampled one is
	// held until it commits, and a proposal whose trainable state would not
	// fit beside the running ones until they finish; at Workers ≥ 2 none,
	// which draws what Propose draws, in completion order.
	fill := func() {
		for issued < cfg.Budget && (len(replay) > 0 || (ctx.Err() == nil && cancelled == nil)) {
			if draft == nil {
				if len(open)-len(done) >= slots {
					return
				}
				var pending []int
				for id := next; workers == 1 && id < issued; id++ {
					pending = append(pending, id)
				}
				if draft = evo.DraftOf(strategy, rng, pending); len(draft.Waits()) > 0 {
					mWaited.Inc()
				}
			}
			if w := draft.Waits(); len(w) > 0 && slices.Max(w) >= next {
				return
			}
			if ready == nil {
				p := draft.Finish(rng)
				ready = &p
			}
			if workers == 1 && len(open) > len(done) {
				inFlight := state(ready.ParentID)
				for id, t := range open {
					if _, ok := done[id]; !ok {
						inFlight += state(t.ParentID)
					}
				}
				if inFlight > lookaheadState {
					return
				}
			}
			issue(*ready)
			draft, ready = nil, nil
		}
	}
	// drop discards a lookahead result that will never commit, and the
	// checkpoint it saved.
	drop := func(r Result) {
		delete(open, r.ID)
		delete(done, r.ID)
		if r.Err == nil {
			store.Delete(CandidateID(r.ID)) //nolint:errcheck // best effort, like the GC's sweep
		}
	}

	// commit records one completed candidate: strategy report, trace record,
	// journal append, GC sweep and Progress, in that order.
	commit := func(res Result, manifest []byte) error {
		t := open[res.ID]
		if res.Err != nil && !res.Failed {
			return res.Err
		}
		if !res.Resumed {
			// The task's identity is the scheduler's: an executor's error
			// result need carry no more than the ID.
			res.Arch, res.ParentID = t.Arch, t.ParentID
			res.CompletedAt, res.ProxyScore = time.Since(start), t.ProxyScore
			if res.Failed {
				res.FailReason = res.Err.Error()
			}
		}
		delete(open, res.ID)
		if workers == 1 {
			params = append(params, res.Params) // commits are in id order
			sum += res.Params
		}
		// The failure rule, the same for every executor and for a journaled
		// failure: the candidate spent its budget slot, is recorded, and joins
		// the population below every scored member; it has no score for the
		// running best or the GC's top-K.
		if !res.Failed {
			if !scored || res.Score > best {
				best, scored = res.Score, true
			}
			gc.completed(res.ID, res.Score)
		}
		strategy.Report(evo.Individual{ID: res.ID, Arch: res.Arch, Score: res.Score, Params: res.Params, Failed: res.Failed})
		res.BestScore = best
		tr.Records = append(tr.Records, res.Record)
		// A Failed candidate has no checkpoint to reference, but its record
		// must be journaled: its completion triggers a proposal like any other,
		// and a resumed run can only follow the issue order the journal shows.
		switch {
		case res.Resumed && !res.Failed:
			// The manifest is re-registered against the durable object,
			// hash-verified (by the check above the loop, or here if that
			// failed), so later transfers read identical providers. One
			// whose object was collected before the crash is fine when GC is on:
			// the sweep below deletes that candidate at the same point the
			// crashed run did, so the missing checkpoint can never be needed.
			if err := manifests.AdoptManifest(CandidateID(res.ID), manifest); err != nil && !(gc != nil && errors.Is(err, checkpoint.ErrMissingBlob)) {
				return fmt.Errorf("nas: restoring journaled checkpoint %d: %w", res.ID, err)
			}
		case !res.Resumed && cfg.Journal != nil:
			rec := resilience.EvalRecord{Record: res.Record}
			if !res.Failed {
				var err error
				if rec.Manifest, err = manifests.EncodedManifest(CandidateID(res.ID)); err != nil {
					return fmt.Errorf("nas: journaling candidate %d: %w", res.ID, err)
				}
			}
			if err := cfg.Journal.Append(rec); err != nil {
				return fmt.Errorf("nas: journaling candidate %d: %w", res.ID, err)
			}
		}
		// Sweep after the journal step: the candidate just recorded is never
		// eligible (it is the population's newest member), and evicted ones
		// already have their records on disk. None once a task is cancelled:
		// a resumed run re-issues it, and it needs its provider.
		if cancelled == nil {
			gc.sweep(open)
		}
		if cfg.Progress != nil {
			cfg.Progress(res)
		}
		if res.Resumed && len(replay) == 0 {
			for _, id := range held {
				if t, ok := open[id]; ok {
					submit(t)
				}
			}
			start = time.Now()
		}
		return nil
	}

	fill()
	// Every issued task is drained: outstanding results are bounded by the
	// slot count, so the buffered channels never block and no evaluator
	// goroutine is left holding a result when Run returns.
	for len(open) > 0 {
		var res Result
		var manifest []byte
		if len(replay) > 0 {
			res, manifest = Result{Record: replay[0].Record, Resumed: true}, replay[0].Manifest
			replay = replay[1:]
			mCandResumed.Inc()
		} else {
			res = <-results
		}
		t, ok := open[res.ID]
		switch {
		case !ok && res.Resumed:
			return nil, fmt.Errorf("nas: journal candidate %d is not in the replayed schedule — journal and run options disagree", res.ID)
		case !ok:
			return nil, fmt.Errorf("nas: executor returned candidate %d, which is not in flight", res.ID)
		case res.Resumed && workers == 1 && res.ID != next:
			return nil, fmt.Errorf("nas: journal candidate %d comes before candidate %d — journal and run options disagree", res.ID, next)
		case res.Resumed && (!slices.Equal([]int(t.Arch), res.Arch) || t.ParentID != res.ParentID):
			return nil, fmt.Errorf("nas: journal candidate %d has arch %v from parent %d, replay proposed %v from parent %d — journal and run options disagree", res.ID, res.Arch, res.ParentID, t.Arch, t.ParentID)
		}
		switch {
		case res.Err != nil && !res.Failed && (errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded)):
			// Cancelled mid-training or skipped in queue; keep draining. At one
			// evaluator only the id-order prefix before it commits.
			delete(open, res.ID)
			cancelled = res.Err
			gap = min(gap, res.ID)
			for id, r := range done {
				if id > gap {
					drop(r.Result)
				}
			}
		case workers > 1:
			if err := commit(res, manifest); err != nil {
				return nil, err
			}
		case res.ID > gap:
			drop(res)
		default:
			// The reorder buffer: commit strictly in id order.
			done[res.ID] = completion{res, manifest}
			for r, ok := done[next]; ok; r, ok = done[next] {
				delete(done, next)
				next++
				if err := commit(r.Result, r.manifest); err != nil {
					return nil, err
				}
			}
		}
		fill()
	}
	if err := cmp.Or(ctx.Err(), cancelled); err != nil && len(tr.Records) < cfg.Budget {
		return tr, err
	}
	return tr, nil
}

// TaskSeed derives candidate id's deterministic evaluation seed from the
// search seed, so a task re-issued by a resumed run trains exactly as it
// would have in the original one.
func TaskSeed(searchSeed int64, id int) int64 {
	return searchSeed*1_000_003 + int64(id)
}
