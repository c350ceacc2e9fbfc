package swtnas

import (
	"fmt"
	"slices"

	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/tensor"
)

// SearchOptions configures a NAS run.
type SearchOptions struct {
	// App is one of Applications(). Required.
	App string
	// Scheme is one of Schemes(); empty means baseline.
	Scheme string
	// Budget is the number of candidates to evaluate. Required.
	Budget int
	// Workers sizes the parallel evaluator pool (default 1). With Pool set
	// it instead caps how many of the shared pool's slots this search uses
	// at once.
	Workers int
	// KernelWorkers caps the intra-candidate compute-kernel parallelism
	// (the process-wide worker pool the Conv/Dense kernels shard batches
	// across). 0 keeps the current setting: the SWTNAS_WORKERS
	// environment variable when set, GOMAXPROCS otherwise. When Workers
	// evaluators run concurrently, KernelWorkers ≈ cores/Workers
	// partitions the machine between them.
	KernelWorkers int
	// Seed drives the search; DataSeed the synthetic dataset (defaults
	// to Seed).
	Seed, DataSeed int64
	// DType selects the training element type: "" or "f64" (the default
	// float64 stack), or "f32" to train candidates natively in float32 —
	// roughly half the memory traffic on the GEMM and convolution hot paths, with
	// checkpoints stored at 4 bytes per element. Candidates are still built
	// and weight-transferred in float64 and converted once before training,
	// so the search's proposal stream is identical across dtypes; only the
	// trained weights and scores differ by rounding. The Go spellings
	// "float64"/"float32" are also accepted. See DESIGN.md §14.
	DType string
	// TrainN / ValN override the dataset split sizes (0 = defaults).
	TrainN, ValN int
	// PopulationSize / SampleSize configure regularized evolution
	// (0 = the paper's 64 / 32).
	PopulationSize, SampleSize int
	// CheckpointDir persists candidate checkpoints on disk (one compressed,
	// content-addressed object plus a small manifest file per candidate);
	// empty keeps them in memory.
	CheckpointDir string
	// RetainTopK, when positive, garbage-collects the checkpoints of
	// candidates that aged out of the evolution population and fall outside
	// the running top-K scores — bounding store growth on long runs. Note
	// that Result.FullyTrain needs the candidate's checkpoint, so RetainTopK
	// should be at least the number of candidates passed to Best.
	RetainTopK int
	// SpaceJSON, when set, is a custom declarative search space (an
	// internal/search.Spec in JSON) searched instead of the built-in one;
	// App then names only the dataset it trains on. A spec that does not
	// parse, compile or fit the dataset fails the search before anything
	// trains (DESIGN.md §5).
	SpaceJSON string
	// Progress, when non-nil, streams each candidate as its evaluation
	// completes, in completion order — the same candidates that end up in
	// Result.Candidates. It is invoked from the search's scheduler
	// goroutine, so a slow callback delays issuing the next candidate;
	// it must not block indefinitely. On a resumed run the journaled prefix
	// is streamed first, each candidate marked Resumed.
	Progress func(Candidate)
	// Metrics turns on process-wide metrics recording (the internal/obs
	// registry, also served by cmd/swtnas -metrics-addr) for this search
	// and attaches the run's metric deltas and latency statistics to
	// Result.Summary. Recording is a process-level switch: it stays on
	// after the search returns, and concurrent instrumented work in the
	// same process shows up in the deltas.
	Metrics bool
	// JournalPath enables crash-resume: every completed candidate is
	// appended to a write-ahead log at this path and fsynced before the
	// search proceeds. The journal holds small manifest records; the
	// checkpoint objects they name are durable in the content-addressed
	// store at CheckpointDir, or at JournalPath + ".blobs" when
	// CheckpointDir is empty. Empty disables journaling.
	JournalPath string
	// Resume replays the journal at JournalPath instead of starting fresh:
	// journaled candidates are restored without re-evaluating (checkpoints
	// bit for bit), and the search continues from where the previous
	// process died, reaching the same result as an uninterrupted run. The
	// options must match the original run's — the journal header is
	// validated field by field.
	Resume bool
	// ProxyFilter turns on the zero-cost proxy pre-filter: each batch of
	// mutation proposals is scored without training (gradient-norm and
	// Jacobian-covariance proxies on one minibatch, later an online ridge
	// surrogate refit from the live trace) and only the best ProxyAdmit
	// fraction is admitted to real partial training. Rejected proposals are
	// streamed as filtered events and listed in the trace; they consume no
	// budget. Filter decisions are seeded and deterministic, so crash-resume
	// regenerates them exactly.
	ProxyFilter bool
	// ProxyAdmit is the fraction of each proposal batch the pre-filter
	// admits to training, in (0, 1]; 0 means the default 0.5. Only
	// meaningful with ProxyFilter set.
	ProxyAdmit float64
	// MultiObjective switches parent selection from best-score regularized
	// evolution to Pareto (accuracy maximized, parameters minimized)
	// sampling: each proposal mutates a random member of the sample's
	// Pareto front, keeping small accurate models in the breeding pool.
	// Result.ParetoFront then reports the non-dominated candidates.
	MultiObjective bool
	// Pool, when non-nil, runs this search's evaluations on a shared
	// evaluator pool instead of a private one of its own — many concurrent
	// searches then share one core budget under weighted-fair scheduling.
	// The pool outlives the search; admission may fail with
	// ErrQuotaExceeded.
	Pool *EvaluatorPool
	// Tenant attributes the search to a quota and metrics group on the
	// shared pool. Only meaningful with Pool set.
	Tenant string
	// Weight biases the shared pool's fair scheduler toward this search
	// (default 1; a weight-2 search receives twice the evaluation slots of
	// a weight-1 search under contention). Only meaningful with Pool set.
	Weight int
}

// InvalidOptionError reports which SearchOptions field failed validation and
// why; callers (the CLI, the serve layer) use Field to point the user at the
// exact input to fix.
type InvalidOptionError struct {
	// Field is the SearchOptions field name, e.g. "Budget".
	Field string
	// Reason says what is wrong with the value.
	Reason string
}

func (e *InvalidOptionError) Error() string {
	return fmt.Sprintf("swtnas: invalid SearchOptions.%s: %s", e.Field, e.Reason)
}

// Validate checks the options without running anything, returning an
// *InvalidOptionError naming the offending field. Search, Search handles and
// the serve layer all validate through it, so every entry point rejects the
// same inputs with the same message.
func (opt SearchOptions) Validate() error {
	if opt.App == "" {
		return &InvalidOptionError{Field: "App", Reason: fmt.Sprintf("required (one of %v)", Applications())}
	}
	if !slices.Contains(data.Names(), opt.App) {
		return &InvalidOptionError{Field: "App", Reason: fmt.Sprintf("unknown application %q (one of %v)", opt.App, Applications())}
	}
	if _, ok := core.MatcherByName(opt.Scheme); !ok {
		return &InvalidOptionError{Field: "Scheme", Reason: fmt.Sprintf("unknown scheme %q (one of %v)", opt.Scheme, Schemes())}
	}
	if opt.Budget <= 0 {
		return &InvalidOptionError{Field: "Budget", Reason: fmt.Sprintf("must be positive, got %d", opt.Budget)}
	}
	if _, err := tensor.ParseDType(opt.DType); err != nil {
		return &InvalidOptionError{Field: "DType", Reason: fmt.Sprintf("unknown dtype %q (f32, f64 or empty)", opt.DType)}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Workers", opt.Workers},
		{"KernelWorkers", opt.KernelWorkers},
		{"TrainN", opt.TrainN},
		{"ValN", opt.ValN},
		{"PopulationSize", opt.PopulationSize},
		{"SampleSize", opt.SampleSize},
		{"RetainTopK", opt.RetainTopK},
		{"Weight", opt.Weight},
	} {
		if f.v < 0 {
			return &InvalidOptionError{Field: f.name, Reason: fmt.Sprintf("must not be negative, got %d", f.v)}
		}
	}
	if opt.PopulationSize > 0 && opt.SampleSize > opt.PopulationSize {
		return &InvalidOptionError{Field: "SampleSize", Reason: fmt.Sprintf("%d exceeds PopulationSize %d", opt.SampleSize, opt.PopulationSize)}
	}
	if opt.Resume && opt.JournalPath == "" {
		return &InvalidOptionError{Field: "Resume", Reason: "requires JournalPath"}
	}
	if opt.ProxyAdmit < 0 || opt.ProxyAdmit > 1 {
		return &InvalidOptionError{Field: "ProxyAdmit", Reason: fmt.Sprintf("must be in (0, 1], got %g", opt.ProxyAdmit)}
	}
	if opt.ProxyAdmit > 0 && !opt.ProxyFilter {
		return &InvalidOptionError{Field: "ProxyAdmit", Reason: "set without ProxyFilter — the admit fraction only applies to the proxy pre-filter"}
	}
	if opt.Weight > 0 && opt.Pool == nil {
		return &InvalidOptionError{Field: "Weight", Reason: "set without Pool — weights only apply to shared-pool searches"}
	}
	return nil
}
