package experiments

import (
	"fmt"
	"io"
	"net"
	"time"

	"swtnas/internal/cluster"
	"swtnas/internal/obs"
)

// DistResult summarizes one scheme's distributed search for the Dist table:
// search-level outcomes from the returned trace plus the kernel-level obs
// metric deltas (tensor.gemm.*) attributable to the run.
type DistResult struct {
	App    string
	Scheme string
	// Candidates / Failed / Transferred count completed records, records
	// whose retry budget was exhausted, and records warm-started from a
	// provider checkpoint shipped over TCP.
	Candidates, Failed, Transferred int
	// Best is the best estimated score among non-failed candidates.
	Best float64
	// MeanTrain averages the worker-measured per-candidate training time.
	MeanTrain time.Duration
	// CheckpointKB is the total checkpoint traffic returned by workers.
	CheckpointKB float64
	// Wall is the coordinator-side end-to-end search duration.
	Wall time.Duration
	// GemmCalls / GemmGFLOP / GemmTime are the tensor.gemm.* deltas over
	// the run: kernel invocations, floating-point work (billions of
	// multiply-adds ×2), and time inside the GEMM kernels.
	GemmCalls int64
	GemmGFLOP float64
	GemmTime  time.Duration
}

// distWorkers resolves how many in-process TCP workers Dist spins up.
func (s *Suite) distWorkers() int {
	if s.Cfg.Workers > 1 {
		return s.Cfg.Workers
	}
	return 2
}

// Dist runs one miniature distributed search per estimation scheme over real
// net/rpc workers — the paper's Figure 6 coordinator/evaluator split — and
// prints a summary table. It is the wiring between cluster.RunDistributed
// and the experiment report: the same trace schema the single-process
// experiments consume, plus the obs kernel counters that attribute compute
// to each scheme. The first configured application is used (narrow with
// -apps); the per-search budget and worker count follow the suite config.
func (s *Suite) Dist(w io.Writer) ([]DistResult, error) {
	appName := s.Cfg.Apps[0]
	workers := s.distWorkers()

	// The gemm counters live in the process-global obs registry; the workers
	// run in-process, so deltas around each search isolate its kernel work.
	prevObs := obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)

	line(w, "Distributed search summaries (%s, budget %d, %d TCP workers)", appName, s.Cfg.Budget, workers)
	line(w, "%-10s %6s %6s %6s %8s %10s %10s %9s %10s %9s %10s",
		"scheme", "cands", "failed", "xfer", "best", "meanTrain", "ckpt[KB]", "wall", "gemmCalls", "GFLOP", "gemmTime")

	var results []DistResult
	for _, scheme := range Schemes() {
		c := cluster.NewCoordinator()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		done := make(chan error, workers)
		go c.Serve(l) //nolint:errcheck // exits when the listener closes
		for i := 0; i < workers; i++ {
			wk := &cluster.Worker{ID: fmt.Sprintf("dist-w%d", i)}
			go func() { done <- wk.Run(l.Addr().String()) }()
		}

		before := obs.Take()
		start := time.Now()
		tr, err := cluster.RunDistributed(c, cluster.DistConfig{
			App:         appName,
			DataSeed:    s.Cfg.Seed,
			TrainN:      s.Cfg.TrainN,
			ValN:        s.Cfg.ValN,
			Matcher:     scheme,
			Budget:      s.Cfg.Budget,
			Outstanding: workers,
			Seed:        s.Cfg.Seed,
			N:           s.Cfg.PopN,
			S:           s.Cfg.PopS,
		})
		wall := time.Since(start)
		delta := obs.Take().Delta(before)
		c.Shutdown()
		for i := 0; i < workers; i++ {
			<-done // workers exit cleanly on coordinator shutdown
		}
		l.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: dist %s/%s: %w", appName, scheme, err)
		}

		r := DistResult{App: appName, Scheme: scheme, Wall: wall}
		var trainSum time.Duration
		var ckptBytes int64
		for _, rec := range tr.Records {
			if rec.Failed {
				r.Failed++
				continue
			}
			r.Candidates++
			if rec.Score > r.Best {
				r.Best = rec.Score
			}
			if rec.TransferCopied > 0 {
				r.Transferred++
			}
			trainSum += rec.TrainTime
			ckptBytes += rec.CheckpointBytes
		}
		if r.Candidates > 0 {
			r.MeanTrain = trainSum / time.Duration(r.Candidates)
		}
		r.CheckpointKB = float64(ckptBytes) / 1024
		r.GemmCalls = delta.Counters["tensor.gemm.calls"]
		// tensor.gemm.flops counts multiply-adds ×2 (see tensor/gemm.go).
		r.GemmGFLOP = float64(delta.Counters["tensor.gemm.flops"]) / 1e9
		r.GemmTime = time.Duration(delta.Histograms["tensor.gemm.seconds"].Sum * float64(time.Second))

		line(w, "%-10s %6d %6d %6d %8.4f %10s %10.1f %9s %10d %10.2f %10s",
			r.Scheme, r.Candidates, r.Failed, r.Transferred, r.Best,
			r.MeanTrain.Round(time.Millisecond), r.CheckpointKB,
			r.Wall.Round(time.Millisecond), r.GemmCalls, r.GemmGFLOP,
			r.GemmTime.Round(time.Millisecond))
		results = append(results, r)
	}
	return results, nil
}
