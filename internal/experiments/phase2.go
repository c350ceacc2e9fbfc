package experiments

import (
	"io"
	"time"

	"swtnas/internal/stats"
	"swtnas/internal/trace"
)

// Phase2Model is one fully trained top-K model (the paper's second NAS
// stage, feeding Fig 8 and Tables III/IV).
type Phase2Model struct {
	App    string
	Scheme string
	Rep    int
	Rank   int
	// EpochsES counts the epochs full training ran before early stopping.
	EpochsES int
	// ScoreES / ScoreFull are the objective metrics with early stopping
	// and with the full epoch budget.
	ScoreES, ScoreFull float64
	// Params is the trainable parameter count (Table IV).
	Params int
}

// topKWithin selects the top-K records completed before the cutoff.
func topKWithin(tr *trace.Trace, cutoff time.Duration, k int) []trace.Record {
	filtered := &trace.Trace{}
	for _, r := range tr.Records {
		if r.CompletedAt <= cutoff {
			filtered.Records = append(filtered.Records, r)
		}
	}
	idx := filtered.TopK(k)
	out := make([]trace.Record, len(idx))
	for i, j := range idx {
		out[i] = filtered.Records[j]
	}
	return out
}

// Phase2 fully trains the top-K models of every campaign within the
// shortest makespan (fullTrain: resuming from their checkpoints, as the
// search pipeline does) twice: once with the paper's early-stopping rule
// and once for the full epoch budget. Results are cached; Fig8, Table3 and
// Table4 all render from them.
func (s *Suite) Phase2() ([]Phase2Model, error) {
	s.mu.Lock()
	if s.phase2 != nil {
		defer s.mu.Unlock()
		return s.phase2, nil
	}
	s.mu.Unlock()

	var models []Phase2Model
	for _, name := range s.Cfg.Apps {
		cutoff, err := s.shortestMakespan(name)
		if err != nil {
			return nil, err
		}
		for _, scheme := range Schemes() {
			c, err := s.Campaign(name, scheme)
			if err != nil {
				return nil, err
			}
			for rep, tr := range c.Traces {
				for rank, rec := range topKWithin(tr, cutoff, s.Cfg.TopK) {
					seed := s.Cfg.Seed + int64(rec.ID)*7 + int64(rep)
					hES, err := s.fullTrain(c.App, c.Stores[rep], rec, seed, true)
					if err != nil {
						return nil, err
					}
					hFull, err := s.fullTrain(c.App, c.Stores[rep], rec, seed, false)
					if err != nil {
						return nil, err
					}
					models = append(models, Phase2Model{
						App: name, Scheme: scheme, Rep: rep, Rank: rank,
						EpochsES:  hES.EpochsRun,
						ScoreES:   hES.FinalScore(),
						ScoreFull: hFull.FinalScore(),
						Params:    rec.Params,
					})
				}
			}
		}
	}
	s.mu.Lock()
	s.phase2 = models
	s.mu.Unlock()
	return models, nil
}

func (s *Suite) phase2Column(models []Phase2Model, app, scheme string, f func(Phase2Model) float64) []float64 {
	var xs []float64
	for _, m := range models {
		if m.App == app && m.Scheme == scheme {
			xs = append(xs, f(m))
		}
	}
	return xs
}

// Fig8Row is one bar group of Figure 8.
type Fig8Row struct {
	App        string
	Scheme     string
	MeanEpochs float64
	ScoreES    float64
	ScoreFull  float64
}

// Fig8 reproduces Figure 8: average epochs to convergence (early stopping)
// of the fully trained top-K models, their objective metrics, and the
// geometric-mean speedups of LP and LCS over the baseline.
func (s *Suite) Fig8(w io.Writer) ([]Fig8Row, map[string]float64, error) {
	models, err := s.Phase2()
	if err != nil {
		return nil, nil, err
	}
	line(w, "Fig 8: full-training epochs to early stop and objective metrics of top-%d models", s.Cfg.TopK)
	var rows []Fig8Row
	meanEpochs := map[string]map[string]float64{}
	for _, name := range s.Cfg.Apps {
		meanEpochs[name] = map[string]float64{}
		for _, scheme := range Schemes() {
			epochs := s.phase2Column(models, name, scheme, func(m Phase2Model) float64 { return float64(m.EpochsES) })
			es := s.phase2Column(models, name, scheme, func(m Phase2Model) float64 { return m.ScoreES })
			fullS := s.phase2Column(models, name, scheme, func(m Phase2Model) float64 { return m.ScoreFull })
			row := Fig8Row{
				App: name, Scheme: scheme,
				MeanEpochs: stats.Mean(epochs),
				ScoreES:    stats.Mean(es),
				ScoreFull:  stats.Mean(fullS),
			}
			meanEpochs[name][scheme] = row.MeanEpochs
			rows = append(rows, row)
			line(w, "  %-8s %-8s epochs %5.2f  score(early-stop) %.4f  score(full) %.4f",
				row.App, row.Scheme, row.MeanEpochs, row.ScoreES, row.ScoreFull)
		}
	}
	speedups := map[string]float64{}
	for _, scheme := range []string{"LP", "LCS"} {
		var ratios []float64
		for _, name := range s.Cfg.Apps {
			b, t := meanEpochs[name]["baseline"], meanEpochs[name][scheme]
			if b > 0 && t > 0 {
				ratios = append(ratios, b/t)
			}
		}
		if g, err := stats.GeoMean(ratios); err == nil {
			speedups[scheme] = g
			line(w, "  %s full-training speedup vs baseline (geomean epochs): %.2fx", scheme, g)
		}
	}
	return rows, speedups, nil
}

// Table3Row is one row of Table III: top-scored models after full training.
type Table3Row struct {
	App               string
	Scheme            string
	FullMean, FullStd float64
	ESMean, ESStd     float64
}

// Table3 reproduces Table III.
func (s *Suite) Table3(w io.Writer) ([]Table3Row, error) {
	models, err := s.Phase2()
	if err != nil {
		return nil, err
	}
	line(w, "Table III: objective metrics of top-scored models after full training")
	line(w, "%-8s %-8s %-18s %-18s", "App", "Scheme", "Fully Trained", "Early Stopped")
	var rows []Table3Row
	for _, name := range s.Cfg.Apps {
		for _, scheme := range Schemes() {
			fullS := s.phase2Column(models, name, scheme, func(m Phase2Model) float64 { return m.ScoreFull })
			es := s.phase2Column(models, name, scheme, func(m Phase2Model) float64 { return m.ScoreES })
			row := Table3Row{App: name, Scheme: scheme}
			row.FullMean, row.FullStd = stats.MeanStd(fullS)
			row.ESMean, row.ESStd = stats.MeanStd(es)
			rows = append(rows, row)
			line(w, "%-8s %-8s %7.4f ± %-8.4f %7.4f ± %-8.4f",
				row.App, row.Scheme, row.FullMean, row.FullStd, row.ESMean, row.ESStd)
		}
	}
	return rows, nil
}

// Table4Row is one row of Table IV: model complexity of the top models.
type Table4Row struct {
	App      string
	Scheme   string
	Mean     float64
	Std      float64
	Max, Min float64
}

// Table4 reproduces Table IV (parameter counts; the paper reports millions,
// this scaled substrate reports thousands).
func (s *Suite) Table4(w io.Writer) ([]Table4Row, error) {
	models, err := s.Phase2()
	if err != nil {
		return nil, err
	}
	line(w, "Table IV: model complexity of the top-scored models (parameters /10^3)")
	line(w, "%-8s %-8s %10s %10s %10s", "App", "Scheme", "Mean", "Max", "Min")
	var rows []Table4Row
	for _, name := range s.Cfg.Apps {
		for _, scheme := range Schemes() {
			params := s.phase2Column(models, name, scheme, func(m Phase2Model) float64 { return float64(m.Params) / 1e3 })
			row := Table4Row{App: name, Scheme: scheme}
			row.Mean, row.Std = stats.MeanStd(params)
			row.Max, row.Min = stats.Max(params), stats.Min(params)
			rows = append(rows, row)
			line(w, "%-8s %-8s %6.1f±%-6.1f %10.1f %10.1f", row.App, row.Scheme, row.Mean, row.Std, row.Max, row.Min)
		}
	}
	return rows, nil
}
