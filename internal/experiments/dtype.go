package experiments

import (
	"fmt"
	"io"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/stats"
	"swtnas/internal/tensor"
	"swtnas/internal/trace"
)

// DtypeRow is one application's f32-vs-f64 rank-fidelity study: the same
// search (same seed, budget, scheme) run once per dtype, scores paired by
// candidate ID. Tau is Kendall's τ between the paired phase-1 scores —
// what NAS actually consumes is the *ranking*, so τ is the fidelity number
// (mean over repetitions). MeanAbsDelta is the mean |score_f32−score_f64|
// over paired candidates; BestDelta the mean signed final-score gap
// (f32−f64) after fully training each run's top-1 from its checkpoint in
// f64, the phase-2 path both dtypes share.
type DtypeRow struct {
	App          string
	Tau          float64
	MeanAbsDelta float64
	BestDelta    float64
}

// Dtype runs the f32-vs-f64 rank-fidelity study behind the -dtype flag
// (DESIGN.md §14): does training candidates in float32 preserve the
// ranking the search optimizes? The proposal stream is dtype-independent
// (candidates are built and mutated in f64 either way), so the two runs
// evaluate identical architectures and their scores pair exactly by
// candidate ID. The f64 leg reuses the cached LCS campaign; the f32 leg
// reruns it with Config.DType = F32.
func (s *Suite) Dtype(w io.Writer) ([]DtypeRow, error) {
	line(w, "Dtype study: f32 vs f64 candidate-score rank fidelity (scheme LCS)")
	var rows []DtypeRow
	for _, name := range s.Cfg.Apps {
		c, err := s.Campaign(name, "LCS")
		if err != nil {
			return nil, err
		}
		app := c.App
		var taus, deltas, bests []float64
		for rep := 0; rep < s.Cfg.Seeds; rep++ {
			t32, store32, err := s.search(app, "LCS", rep, tensor.F32)
			if err != nil {
				return nil, err
			}
			t64 := c.Traces[rep]
			s32, s64 := pairScores(t32, t64)
			if len(s32) < 2 {
				return nil, fmt.Errorf("experiments: %s rep %d: only %d paired candidates", name, rep, len(s32))
			}
			tau, err := stats.KendallTau(s32, s64)
			if err != nil {
				return nil, err
			}
			taus = append(taus, tau)
			var d float64
			for i := range s32 {
				if diff := s32[i] - s64[i]; diff < 0 {
					d -= diff
				} else {
					d += diff
				}
			}
			deltas = append(deltas, d/float64(len(s32)))
			b32, err := s.bestFinalScore(app, t32, store32)
			if err != nil {
				return nil, err
			}
			b64, err := s.bestFinalScore(app, t64, c.Stores[rep])
			if err != nil {
				return nil, err
			}
			bests = append(bests, b32-b64)
		}
		row := DtypeRow{App: name}
		row.Tau, _ = stats.MeanStd(taus)
		row.MeanAbsDelta, _ = stats.MeanStd(deltas)
		row.BestDelta, _ = stats.MeanStd(bests)
		rows = append(rows, row)
		line(w, "  %-8s tau(f32,f64) %6.3f  mean|dScore| %8.5f  d(final best) %+8.5f",
			row.App, row.Tau, row.MeanAbsDelta, row.BestDelta)
	}
	return rows, nil
}

// pairScores aligns the two traces' records by candidate ID and returns
// the paired score columns, skipping failed records on either side.
func pairScores(t32, t64 *trace.Trace) (s32, s64 []float64) {
	ref := make(map[int]float64, len(t64.Records))
	for _, r := range t64.Records {
		if !r.Failed {
			ref[r.ID] = r.Score
		}
	}
	for _, r := range t32.Records {
		if r.Failed {
			continue
		}
		v, ok := ref[r.ID]
		if !ok {
			continue
		}
		s32 = append(s32, r.Score)
		s64 = append(s64, v)
	}
	return s32, s64
}

// bestFinalScore fully trains the trace's top-1 candidate from its
// checkpoint (fullTrain, early-stopped, in f64 whatever dtype the search
// ran) and returns the final validation score.
func (s *Suite) bestFinalScore(app *apps.App, tr *trace.Trace, store checkpoint.Store) (float64, error) {
	idx := tr.TopK(1)
	if len(idx) == 0 {
		return 0, fmt.Errorf("experiments: %s: no rankable candidates", tr.App)
	}
	rec := tr.Records[idx[0]]
	h, err := s.fullTrain(app, store, rec, s.Cfg.Seed+int64(rec.ID), true)
	if err != nil {
		return 0, err
	}
	return h.FinalScore(), nil
}
