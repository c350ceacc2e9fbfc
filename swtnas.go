// Package swtnas is a neural-architecture-search library with selective
// weight transfer, a from-scratch Go reproduction of "Accelerating DNN
// Architecture Search at Scale Using Selective Weight Transfer"
// (Liu, Nicolae, Di, Cappello, Jog — IEEE CLUSTER 2021).
//
// Instead of estimating every NAS candidate by training it from random
// weights, the library checkpoints each evaluated candidate and initializes
// new candidates from the weights of structurally similar, previously
// evaluated ones. Two matchers align the "shape sequences" (ordered
// parameter-tensor shapes) of provider and receiver: LP (longest prefix)
// and LCS (longest common subsequence). Provider selection is free under
// regularized evolution: each child is a one-node mutation of its parent.
//
// The package exposes the high-level workflow:
//
//	res, err := swtnas.Search(swtnas.SearchOptions{App: "nt3", Scheme: "LCS", Budget: 200})
//	best := res.Best(10)
//	full, err := res.FullyTrain(best[0])
//
// Long-lived callers (the swtnas-server service, dashboards, schedulers)
// use the handle form of the same API: New validates options into a
// *SearchHandle, Start launches it, Events streams per-candidate progress,
// TopK reads the partial leaderboard mid-run, Cancel stops it, Wait collects
// the Result.
// Many concurrent searches can share one EvaluatorPool under weighted-fair
// scheduling with per-tenant admission quotas.
//
// Lower-level building blocks (the training stack, search spaces, the
// transfer engine, the cluster simulator, the experiment harness) live in
// internal packages; the cmd/ tools and examples/ programs show them in
// action.
package swtnas

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
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
	"swtnas/internal/search"
	"swtnas/internal/trace"
)

// Applications lists the built-in application names in the paper's order:
// cifar10, mnist, nt3, uno.
func Applications() []string { return data.Names() }

// Schemes lists the candidate-estimation schemes: baseline (train from
// scratch), LP and LCS (selective weight transfer).
func Schemes() []string { return []string{"baseline", "LP", "LCS"} }

// Candidate is one evaluated model of a search. The JSON field names are a
// stable wire schema shared with the serve layer's candidate events.
type Candidate struct {
	// ID is the candidate number; its checkpoint id is derived from it.
	ID int `json:"id"`
	// Arch is the architecture sequence (paper Section II).
	Arch []int `json:"arch"`
	// Score is the estimated objective metric from partial training.
	Score float64 `json:"score"`
	// Params is the trainable-parameter count.
	Params int `json:"params"`
	// ParentID is the weight-transfer provider (-1 for scratch).
	ParentID int `json:"parent_id"`
	// TransferredLayers counts layer groups warm-started from the parent.
	TransferredLayers int `json:"transferred_layers"`
	// TrainTime is the measured candidate-estimation training time.
	TrainTime time.Duration `json:"train_time"`
	// CheckpointBytes is the encoded checkpoint size.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// CompletedAt is the completion offset from search start.
	CompletedAt time.Duration `json:"completed_at"`
	// EvalTime is the end-to-end evaluation latency (build + transfer +
	// train + checkpoint); TrainTime is the training share alone.
	EvalTime time.Duration `json:"eval_time,omitempty"`
	// QueueWait is how long the candidate waited for a free evaluator.
	QueueWait time.Duration `json:"queue_wait,omitempty"`
	// BestScore is the best score of any candidate completed so far,
	// including this one — the running best a Progress callback can use
	// for whole-search early stopping.
	BestScore float64 `json:"best_score"`
	// Resumed marks a candidate replayed from a crash-resume journal rather
	// than evaluated by this process.
	Resumed bool `json:"resumed,omitempty"`
	// ProxyScore is the admission score the proxy pre-filter gave this
	// candidate before training (zero in runs without ProxyFilter).
	ProxyScore float64 `json:"proxy_score,omitempty"`
	// Filtered marks a proposal the proxy pre-filter rejected before
	// training: it consumed no budget, has no checkpoint, and its ID is the
	// sentinel -1 (rejected proposals never receive candidate numbers).
	// Only the Events stream carries it; Result.Candidates never does.
	Filtered bool `json:"filtered,omitempty"`
	// Failed marks a candidate with no score: its training diverged to a
	// non-finite score or weight, or (on a TCP coordinator) every attempt of
	// its retry budget failed (FailReason says which). It consumed budget,
	// has no checkpoint, never ranks in Best, TopK or ParetoFront, and stays
	// failed across a resume. It joins the search's population ranked below
	// every scored member, and is never a weight-transfer provider.
	Failed     bool   `json:"failed,omitempty"`
	FailReason string `json:"fail_reason,omitempty"`
}

// candidateOf renders one finished evaluation as a Candidate: the repo's one
// mapping from a trace record to the public form.
func candidateOf(r nas.Result) Candidate {
	return Candidate{
		ID:                r.ID,
		Arch:              r.Arch,
		Score:             r.Score,
		Params:            r.Params,
		ParentID:          r.ParentID,
		TransferredLayers: r.TransferCopied,
		TrainTime:         r.TrainTime,
		CheckpointBytes:   r.CheckpointBytes,
		CompletedAt:       r.CompletedAt,
		EvalTime:          r.EvalTime,
		QueueWait:         r.QueueWait,
		BestScore:         r.BestScore,
		Resumed:           r.Resumed,
		ProxyScore:        r.ProxyScore,
		Failed:            r.Failed,
		FailReason:        r.FailReason,
	}
}

// JournalCandidates reads the candidates of a search back from its journal —
// the view a process that resumed it would stream: completion order, each
// marked Resumed, BestScore the running best — together with the same
// candidates in Result.Best order. The serve layer answers for searches that
// finished under an earlier process with it.
func JournalCandidates(path string) (completed, ranked []Candidate, err error) {
	rec, err := resilience.Read(path)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{tr: &trace.Trace{}}
	for _, er := range rec.Records {
		res.tr.Records = append(res.tr.Records, er.Record)
	}
	for i, best := range res.tr.RunningBest() {
		res.Candidates = append(res.Candidates, candidateOf(nas.Result{Record: res.tr.Records[i], BestScore: best, Resumed: true}))
	}
	return res.Candidates, res.Best(len(res.Candidates)), nil
}

// LatencyStats is the compact count/mean/p50/p95/max form SearchSummary
// reports for one latency series.
type LatencyStats struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean"`
	P50   time.Duration `json:"p50"`
	P95   time.Duration `json:"p95"`
	Max   time.Duration `json:"max"`
}

// SearchSummary aggregates one search's telemetry. The counts and WallTime
// are always filled from the trace; the latency series and the Metrics
// document need SearchOptions.Metrics (they are zero/nil otherwise).
type SearchSummary struct {
	// WallTime is the end-to-end search duration.
	WallTime time.Duration `json:"wall_time"`
	// Candidates is the number of completed evaluations.
	Candidates int `json:"candidates"`
	// Resumed is how many of those were replayed from a crash-resume
	// journal rather than evaluated in this process (0 without Resume).
	Resumed int `json:"resumed,omitempty"`
	// BestScore is the best estimated score of the run.
	BestScore float64 `json:"best_score"`
	// Transferred and Scratch split the candidates by warm start.
	Transferred int `json:"transferred"`
	Scratch     int `json:"scratch"`
	// Eval and QueueWait summarize per-candidate end-to-end evaluation
	// latency and evaluator-queue wait.
	Eval      LatencyStats `json:"eval"`
	QueueWait LatencyStats `json:"queue_wait"`
	// Gemm summarizes the per-call latency of the GEMM kernels under all
	// of the run's training.
	Gemm LatencyStats `json:"gemm"`
	// Proxy reports the pre-filter's admission statistics; nil in runs
	// without SearchOptions.ProxyFilter.
	Proxy *ProxySummary `json:"proxy,omitempty"`
	// Metrics is the full metrics delta of the run — every counter, gauge
	// and histogram the process recorded between search start and end, in
	// the same JSON document shape the /debug/metrics endpoint serves.
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// ProxySummary aggregates the proxy pre-filter's run statistics: how many
// proposals it scored, how the admission split fell, and how well the online
// surrogate tracked real scores. Score latency needs SearchOptions.Metrics.
type ProxySummary struct {
	// Proposals is how many mutation proposals the filter scored.
	Proposals int64 `json:"proposals"`
	// Admitted and Filtered split Proposals by the admission decision.
	Admitted int64 `json:"admitted"`
	Filtered int64 `json:"filtered"`
	// SurrogateRefits counts ridge-regression refits from the live trace.
	SurrogateRefits int64 `json:"surrogate_refits"`
	// SurrogateMAE is the mean absolute error of the surrogate's
	// predictions against the real scores observed after each prediction
	// (0 until the surrogate's first fit).
	SurrogateMAE float64 `json:"surrogate_mae"`
	// Score summarizes per-proposal zero-cost scoring latency (zero
	// without SearchOptions.Metrics).
	Score LatencyStats `json:"score"`
}

// Result is a finished candidate-estimation phase.
type Result struct {
	// App and Scheme echo the options.
	App, Scheme string
	// Candidates are in completion order.
	Candidates []Candidate
	// Summary aggregates the run's telemetry (latency series and metric
	// deltas populate when SearchOptions.Metrics is set).
	Summary *SearchSummary

	app   *apps.App
	store checkpoint.Store
	tr    *trace.Trace
}

// Search runs the candidate-estimation phase of NAS: regularized evolution
// proposes candidates, evaluators train each for the application's partial
// budget (warm-started from the parent's checkpoint when a transfer scheme
// is selected), and every candidate is checkpointed. It is
// SearchContext(context.Background(), opt): it always runs to budget.
func Search(opt SearchOptions) (*Result, error) {
	return SearchContext(context.Background(), opt)
}

// SearchContext is Search under a context. Cancelling ctx stops the search
// between candidate evaluations: candidates already training finish (and are
// included), queued proposals are dropped, and SearchContext returns the
// partial *Result of every candidate completed so far together with
// ctx.Err(). The partial Result supports the full API — Best, FullyTrain,
// WriteTrace — so an interrupted search still yields its top models. No
// evaluator goroutines are left running when SearchContext returns.
//
// It is New + Start + Wait: callers that need mid-run visibility (progress
// streams, partial top-K, cancellation by handle) use those directly.
func SearchContext(ctx context.Context, opt SearchOptions) (*Result, error) {
	s, err := New(opt)
	if err != nil {
		return nil, err
	}
	if err := s.Start(ctx); err != nil {
		return nil, err
	}
	return s.Wait()
}

// summarize builds the search summary from the trace, plus metric deltas
// when a pre-run snapshot was taken and proxy-filter statistics when the run
// used a pre-filter.
func summarize(tr *trace.Trace, wall time.Duration, before *obs.Snapshot, pf *proxy.Prefilter) *SearchSummary {
	s := &SearchSummary{WallTime: wall, Candidates: len(tr.Records)}
	if pf != nil {
		st := pf.Stats()
		s.Proxy = &ProxySummary{
			Proposals:       st.Proposals,
			Admitted:        st.Admitted,
			Filtered:        st.Filtered,
			SurrogateRefits: st.SurrogateRefits,
			SurrogateMAE:    st.SurrogateMAE,
		}
	}
	for _, r := range tr.Records {
		if r.Failed {
			continue
		}
		if r.TransferCopied > 0 {
			s.Transferred++
		} else {
			s.Scratch++
		}
	}
	if top := tr.TopK(1); len(top) > 0 {
		s.BestScore = tr.Records[top[0]].Score
	}
	if before != nil {
		d := obs.Take().Delta(before)
		s.Eval = LatencyStats(d.DurationStatsOf("nas.eval.seconds"))
		s.QueueWait = LatencyStats(d.DurationStatsOf("nas.queue.wait.seconds"))
		s.Gemm = LatencyStats(d.DurationStatsOf("tensor.gemm.seconds"))
		if s.Proxy != nil {
			s.Proxy.Score = LatencyStats(d.DurationStatsOf("proxy.score.seconds"))
		}
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err == nil {
			s.Metrics = json.RawMessage(buf.Bytes())
		}
	}
	return s
}

// Best returns the k best candidates, best first (the top-K set NAS would
// fully train): score descending, ties broken by the lower candidate ID, so
// the order depends on the candidates and not on when each one completed.
func (r *Result) Best(k int) []Candidate {
	idx := r.tr.TopK(k)
	out := make([]Candidate, len(idx))
	for i, j := range idx {
		out[i] = r.Candidates[j]
	}
	return out
}

// ParetoFront returns the candidates no other candidate dominates under the
// two search objectives (score maximized, parameters minimized), in
// completion order — the accuracy×complexity trade-off curve a
// multi-objective run explores. It works on any Result, not only
// MultiObjective ones. Failed candidates never appear.
func (r *Result) ParetoFront() []Candidate {
	inds := make([]evo.Individual, 0, len(r.Candidates))
	for i, rec := range r.tr.Records {
		if rec.Failed {
			continue
		}
		inds = append(inds, evo.Individual{ID: i, Score: rec.Score, Params: rec.Params})
	}
	front := evo.ParetoFront(inds)
	out := make([]Candidate, len(front))
	for i, f := range front {
		out[i] = r.Candidates[f.ID]
	}
	return out
}

// DescribeArch renders the operation choices of an architecture sequence.
func (r *Result) DescribeArch(arch []int) (string, error) {
	return r.app.Space.Describe(arch)
}

// WriteTrace serializes the full search trace as JSON.
func (r *Result) WriteTrace(w io.Writer) error { return r.tr.WriteJSON(w) }

// Summarize writes a Keras-style layer/shape/parameter summary of a
// candidate's network.
func (r *Result) Summarize(c Candidate, w io.Writer) error {
	net, _, err := r.app.Space.BuildSeeded(search.Arch(c.Arch), int64(c.ID)+1)
	if err != nil {
		return err
	}
	net.Summary(w)
	return nil
}

// FullTraining is the outcome of fully training a candidate (NAS phase 2).
type FullTraining struct {
	// Epochs is the number of epochs run before early stopping.
	Epochs int
	// EarlyStopped reports whether the paper's early-stopping rule fired.
	EarlyStopped bool
	// Score is the final objective metric.
	Score float64
}

// FullyTrain resumes a candidate from its checkpoint and trains it with the
// application's early-stopping rule (threshold per app, patience 2) up to
// the full budget of 20 epochs. The network is built from seed ID+1 and
// shuffled from seed ID+2.
func (r *Result) FullyTrain(c Candidate) (*FullTraining, error) {
	h, err := nas.FullyTrain(r.app, r.store, c.ID, search.Arch(c.Arch), int64(c.ID)+1, r.app.FullMaxEpochs, true)
	if err != nil {
		return nil, err
	}
	return &FullTraining{Epochs: h.EpochsRun, EarlyStopped: h.EarlyStopped, Score: h.FinalScore()}, nil
}

// LongestPrefix returns how many leading tensor shapes two shape sequences
// share — the LP matcher's transfer scope (paper Section IV-A).
func LongestPrefix(provider, receiver [][]int) int {
	return len(core.LP{}.Match(provider, receiver))
}

// LongestCommonSubsequence returns the LCS length of two shape sequences —
// the LCS matcher's transfer scope (paper Section IV-A).
func LongestCommonSubsequence(provider, receiver [][]int) int {
	return len(core.LCS{}.Match(provider, receiver))
}

// ArchDistance is the architecture distance d of Section V-A: the number of
// variable nodes on which two sequences differ (-1 for different lengths).
func ArchDistance(a, b []int) int {
	return search.Distance(search.Arch(a), search.Arch(b))
}
