package swtnas

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/evo"
	"swtnas/internal/nas"
	"swtnas/internal/obs"
	"swtnas/internal/proxy"
	"swtnas/internal/resilience"
	"swtnas/internal/tensor"
	"swtnas/internal/trace"
)

// ErrQuotaExceeded is returned by Search.Start when the shared evaluator
// pool's admission limits (PoolOptions.MaxActiveSearches /
// MaxSearchesPerTenant) reject the search. Check with errors.Is.
var ErrQuotaExceeded = nas.ErrQuotaExceeded

// PoolOptions sizes a shared evaluator pool.
type PoolOptions struct {
	// Workers is the number of evaluation slots — how many candidates train
	// concurrently across all searches on the pool. Default GOMAXPROCS.
	Workers int
	// MaxActiveSearches caps concurrently admitted searches (0 = unlimited);
	// Search.Start fails with ErrQuotaExceeded beyond it.
	MaxActiveSearches int
	// MaxSearchesPerTenant caps admitted searches per SearchOptions.Tenant
	// (0 = unlimited).
	MaxSearchesPerTenant int
}

// EvaluatorPool is a long-lived, shared pool of evaluation slots. Many
// concurrent searches (SearchOptions.Pool) run on one pool: a weighted-fair
// scheduler interleaves their candidates slot by slot, per-tenant quotas
// bound admission, and the compute-kernel worker budget is continuously
// re-split across however many evaluations run at once. The serve layer
// keeps one pool for the whole process; tests create small private ones.
type EvaluatorPool struct {
	pool *nas.SharedPool
}

// NewPool creates a shared evaluator pool. Close it when no more searches
// will be submitted.
func NewPool(o PoolOptions) *EvaluatorPool {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &EvaluatorPool{pool: nas.NewSharedPool(nas.PoolConfig{
		Workers:      workers,
		MaxActive:    o.MaxActiveSearches,
		MaxPerTenant: o.MaxSearchesPerTenant,
	})}
}

// Workers reports the pool's slot count.
func (p *EvaluatorPool) Workers() int { return p.pool.Workers() }

// Close stops the pool's slots once their current evaluations finish.
// Searches still running on it observe cancelled evaluations: their queued
// candidates are dropped and Wait returns the candidates completed so far
// beside context.Canceled.
func (p *EvaluatorPool) Close() { p.pool.Close() }

// EventKind discriminates Search.Events entries.
type EventKind string

// The event kinds a search streams.
const (
	// EventCandidate carries one completed candidate evaluation.
	EventCandidate EventKind = "candidate"
	// EventFault carries one fault-tolerance decision (retry, terminal
	// failure) taken for this search's evaluations.
	EventFault EventKind = "fault"
	// EventFiltered carries one proposal the proxy pre-filter rejected
	// before training (SearchOptions.ProxyFilter): the Candidate payload
	// has Filtered set, ID -1, and the proxy score that ranked it below
	// the admission cut. Filtered events never count toward Completed,
	// TopK or BestScore.
	EventFiltered EventKind = "filtered"
)

// FaultKind labels one fault-tolerance decision; see the constants.
type FaultKind = nas.FaultKind

// The fault kinds surfaced in a search's event stream, mirroring the
// scheduler's decisions: requeue and failed are per-candidate, quarantine
// and readmit are per-worker (distributed runs).
const (
	FaultRequeue    = nas.FaultRequeue
	FaultQuarantine = nas.FaultQuarantine
	FaultReadmit    = nas.FaultReadmit
	FaultFailed     = nas.FaultFailed
)

// FaultEvent is one fault-tolerance decision surfaced alongside candidate
// completions: an evaluation on the shared pool failed (which aborts the
// search). It is the scheduler's own event type, which a TCP coordinator also
// emits for requeues and spent retry budgets; the JSON field names are part
// of the serve wire schema.
type FaultEvent = nas.FaultEvent

// Event is one entry of a search's progress stream: a completed candidate or
// a fault-tolerance decision.
type Event struct {
	// Kind says which of the payload fields is set.
	Kind EventKind `json:"kind"`
	// Candidate is set for EventCandidate.
	Candidate *Candidate `json:"candidate,omitempty"`
	// Fault is set for EventFault.
	Fault *FaultEvent `json:"fault,omitempty"`
}

// SearchHandle is a handle on one (possibly running) architecture search. New
// creates it, Start launches it, Events/TopK observe it mid-flight, Cancel
// stops it between candidate evaluations, and Wait collects the final
// Result. All methods are safe for concurrent use; the one-shot helpers
// Search/SearchContext are thin wrappers over this handle.
type SearchHandle struct {
	opt SearchOptions

	mu      sync.Mutex
	cond    *sync.Cond
	history []Event
	closed  bool // no further events
	started bool
	// partial holds every candidate completed so far, so the leaderboard
	// mid-run is the finished Result's: TopK is its Best.
	partial Result
	resumed int
	hasBest bool // some candidate has scored: the last BestScore is real

	cancel context.CancelFunc
	done   chan struct{}
	res    *Result
	err    error
}

// New validates the options and returns an idle search handle; nothing runs
// until Start.
func New(opt SearchOptions) (*SearchHandle, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	s := &SearchHandle{opt: opt, done: make(chan struct{}), partial: Result{tr: &trace.Trace{}}}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Start launches the search. It returns immediately once the search is
// admitted; progress streams through Events and the final Result through
// Wait. Cancelling ctx stops the search between candidate evaluations, like
// SearchContext. Start fails (and the handle becomes terminal) if the shared
// pool rejects the search — check errors.Is(err, ErrQuotaExceeded) — or if
// the handle was already started.
func (s *SearchHandle) Start(ctx context.Context) error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return errors.New("swtnas: search already started")
	}
	s.started = true
	s.mu.Unlock()

	var client *nas.PoolClient
	if s.opt.Pool != nil {
		conc := s.opt.Workers
		if conc <= 0 {
			conc = 1
		}
		var err error
		client, err = s.opt.Pool.pool.Register(nas.ClientConfig{
			Tenant:      s.opt.Tenant,
			Weight:      s.opt.Weight,
			Concurrency: conc,
			OnFault:     func(ev nas.FaultEvent) { s.emit(Event{Kind: EventFault, Fault: &ev}) },
		})
		if err != nil {
			s.finish(nil, err)
			return err
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	s.mu.Lock()
	s.cancel = cancel
	s.mu.Unlock()
	go s.run(ctx, client)
	return nil
}

// Cancel stops the search between candidate evaluations; in-flight
// evaluations finish and are included. Wait then returns the partial Result
// beside context.Canceled. Cancel before Start is a no-op.
func (s *SearchHandle) Cancel() {
	s.mu.Lock()
	cancel := s.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Done closes when the search has finished (any outcome).
func (s *SearchHandle) Done() <-chan struct{} { return s.done }

// Wait blocks until the search finishes and returns its Result, exactly as
// SearchContext would: a partial Result beside ctx's error on cancellation,
// nil beside the error otherwise. Safe to call repeatedly and from multiple
// goroutines.
func (s *SearchHandle) Wait() (*Result, error) {
	<-s.done
	return s.res, s.err
}

// Completed reports how many candidates have finished so far (replayed ones
// included).
func (s *SearchHandle) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.partial.Candidates)
}

// Resumed reports how many of the completed candidates were replayed from a
// crash-resume journal rather than evaluated by this process.
func (s *SearchHandle) Resumed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resumed
}

// BestScore returns the best score seen so far and whether any candidate has
// completed.
func (s *SearchHandle) BestScore() (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasBest {
		return 0, false
	}
	return s.partial.Candidates[len(s.partial.Candidates)-1].BestScore, true
}

// Events returns a channel that first replays every event the search has
// produced so far, then streams new ones live, closing when the search
// finishes. Each call gets an independent stream with the full history — a
// subscriber attaching after a crash-resume sees the whole run, replayed
// candidates marked Resumed. A slow consumer delays only its own stream,
// never the search.
func (s *SearchHandle) Events() <-chan Event {
	ch := make(chan Event, 64)
	go func() {
		defer close(ch)
		next := 0
		for {
			s.mu.Lock()
			for next >= len(s.history) && !s.closed {
				s.cond.Wait()
			}
			if next >= len(s.history) && s.closed {
				s.mu.Unlock()
				return
			}
			batch := s.history[next:len(s.history):len(s.history)]
			next = len(s.history)
			s.mu.Unlock()
			for _, ev := range batch {
				ch <- ev
			}
		}
	}()
	return ch
}

// TopK returns the n best candidates completed so far, best first — the
// partial answer a caller can act on while the search is still running. It is
// Result.Best over the candidates so far: the same ranking rule mid-run,
// after completion and after a resume.
func (s *SearchHandle) TopK(n int) []Candidate {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.partial.Best(n)
}

// emit appends one event to the history and wakes subscribers.
func (s *SearchHandle) emit(ev Event) {
	s.mu.Lock()
	s.history = append(s.history, ev)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// completed records one finished evaluation — scored, failed or replayed from
// the journal — and streams it. Filtered proposals never come here: they
// consumed no budget and have no score.
func (s *SearchHandle) completed(rec trace.Record, c Candidate) {
	s.mu.Lock()
	s.partial.tr.Records = append(s.partial.tr.Records, rec)
	s.partial.Candidates = append(s.partial.Candidates, c)
	if c.Resumed {
		s.resumed++
	}
	s.hasBest = s.hasBest || !c.Failed
	s.mu.Unlock()
	s.emit(Event{Kind: EventCandidate, Candidate: &c})
}

// finish records the outcome, closes the event stream and releases waiters.
func (s *SearchHandle) finish(res *Result, err error) {
	s.mu.Lock()
	s.res, s.err = res, err
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	close(s.done)
}

// run executes the search and publishes its outcome. The pool registration
// is released first: whoever observes the search end may submit the next one
// at once, and must find the slot free.
func (s *SearchHandle) run(ctx context.Context, client *nas.PoolClient) {
	res, err := s.search(ctx, client)
	if client != nil {
		client.Close()
	}
	s.finish(res, err)
}

// search runs the search to completion. It owns every per-run resource: the
// application, the checkpoint store and the journal.
func (s *SearchHandle) search(ctx context.Context, client *nas.PoolClient) (*Result, error) {
	opt := s.opt
	matcher, _ := core.MatcherByName(opt.Scheme) // Validate checked it
	dtype, _ := tensor.ParseDType(opt.DType)     // Validate checked it
	dataSeed := opt.DataSeed
	if dataSeed == 0 {
		dataSeed = opt.Seed
	}
	app, err := apps.New(opt.App, dataSeed, apps.Config{Data: data.Config{TrainN: opt.TrainN, ValN: opt.ValN}, SpaceJSON: opt.SpaceJSON})
	if err != nil {
		return nil, err
	}
	var store checkpoint.Store
	switch {
	case opt.CheckpointDir != "":
		store, err = checkpoint.NewCASDiskStore(opt.CheckpointDir)
		if err != nil {
			return nil, err
		}
	case opt.JournalPath != "":
		// Journaling without an explicit checkpoint dir: a journal record is
		// a manifest, so keep the blobs in a content-addressed store next to
		// the journal, where resume finds them as the crashed run left them.
		store, err = checkpoint.NewCASDiskStore(opt.JournalPath + ".blobs")
		if err != nil {
			return nil, err
		}
	default:
		store = checkpoint.NewCASMemStore()
	}
	var strategy evo.Strategy
	if opt.MultiObjective {
		strategy = evo.NewParetoEvolution(app.Space, opt.PopulationSize, opt.SampleSize)
	} else {
		strategy = evo.NewRegularizedEvolution(app.Space, opt.PopulationSize, opt.SampleSize)
	}
	cfg := nas.Config{
		App:           app,
		Strategy:      strategy,
		Matcher:       matcher,
		DType:         dtype,
		Store:         store,
		Workers:       opt.Workers,
		KernelWorkers: opt.KernelWorkers,
		Budget:        opt.Budget,
		Seed:          opt.Seed,
		RetainTopK:    opt.RetainTopK,
	}
	if client != nil {
		cfg.Executor = client
	}
	var pf *proxy.Prefilter
	if opt.ProxyFilter {
		// Score proposals on a small fixed prefix of the training split: the
		// zero-cost proxies need only a minibatch, and a deterministic batch
		// keeps filter decisions reproducible across runs and crash-resume.
		n := app.Dataset.Train.N()
		if n > 16 {
			n = 16
		}
		pf, err = proxy.NewPrefilter(proxy.FilterConfig{
			Space: app.Space,
			Loss:  app.Space.Loss,
			Batch: app.Dataset.Train.Slice(0, n),
			Seed:  opt.Seed,
			Admit: opt.ProxyAdmit,
		})
		if err != nil {
			return nil, err
		}
		cfg.Prefilter = pf
		cfg.OnFiltered = func(fc trace.FilteredRecord) {
			s.emit(Event{Kind: EventFiltered, Candidate: &Candidate{
				ID:         -1,
				Arch:       fc.Arch,
				Params:     fc.Params,
				ParentID:   fc.ParentID,
				ProxyScore: fc.ProxyScore,
				Filtered:   true,
			}})
		}
	}
	resumed := 0
	if opt.JournalPath != "" {
		header := resilience.Header{
			App:            app.Name,
			Scheme:         nas.SchemeName(matcher),
			Space:          app.Identity,
			Seed:           opt.Seed,
			DataSeed:       dataSeed,
			Budget:         opt.Budget,
			Workers:        opt.Workers,
			Population:     opt.PopulationSize,
			Sample:         opt.SampleSize,
			TrainN:         opt.TrainN,
			ValN:           opt.ValN,
			ProxyFilter:    opt.ProxyFilter,
			ProxyAdmit:     opt.ProxyAdmit,
			MultiObjective: opt.MultiObjective,
		}
		if dtype != tensor.F64 {
			// Canonical spelling; F64 stays "" so pre-dtype journals keep
			// validating against default runs.
			header.DType = dtype.String()
		}
		if opt.Resume {
			j, rec, err := resilience.Open(opt.JournalPath)
			if err != nil {
				return nil, err
			}
			if err := rec.Header.Validate(header); err != nil {
				j.Close()
				return nil, err
			}
			cfg.Journal, cfg.Resume = j, rec
			resumed = len(rec.Records)
		} else {
			j, err := resilience.Create(opt.JournalPath, header)
			if err != nil {
				return nil, err
			}
			cfg.Journal = j
		}
		defer cfg.Journal.Close()
	}
	cfg.Progress = func(r nas.Result) {
		c := candidateOf(r)
		// The caller's callback stays synchronous with the scheduler (the
		// documented Progress contract); the event stream gets the same
		// candidate for subscribers.
		if opt.Progress != nil {
			opt.Progress(c)
		}
		s.completed(r.Record, c)
	}
	var before *obs.Snapshot
	if opt.Metrics {
		obs.SetEnabled(true)
		before = obs.Take()
	}
	start := time.Now()
	tr, runErr := nas.Run(ctx, cfg)
	if tr == nil {
		return nil, runErr
	}
	// runErr is ctx.Err() here: the trace holds the candidates completed
	// before cancellation, and the partial Result is returned beside it.
	s.mu.Lock()
	cands := s.partial.Candidates // Progress saw every record of the trace
	s.mu.Unlock()
	res := &Result{App: app.Name, Scheme: nas.SchemeName(matcher), Candidates: cands, app: app, store: store, tr: tr}
	res.Summary = summarize(tr, time.Since(start), before, pf)
	res.Summary.Resumed = resumed
	return res, runErr
}
