package experiments

import (
	"io"
	"math/rand"

	"swtnas/internal/stats"
)

// Fig9Row is one bar of Figure 9: Kendall's τ between the estimated scores
// and the fully trained ("ground truth") objective metrics.
type Fig9Row struct {
	App    string
	Scheme string
	Tau    float64
	TauStd float64
}

// Fig9 reproduces Figure 9: for each scheme, TauSamples candidates per
// search are fully trained from their checkpoints (tauSample), and
// Kendall's τ is computed between estimation-phase scores and the fully
// trained metrics. τ is computed per repetition and averaged.
func (s *Suite) Fig9(w io.Writer) ([]Fig9Row, error) {
	line(w, "Fig 9: Kendall's tau between estimated scores and fully trained metrics")
	var rows []Fig9Row
	for _, name := range s.Cfg.Apps {
		for _, scheme := range Schemes() {
			c, err := s.Campaign(name, scheme)
			if err != nil {
				return nil, err
			}
			var taus []float64
			for rep, tr := range c.Traces {
				sample, truth, err := s.tauSample(c, rep, 9000)
				if err != nil {
					return nil, err
				}
				est := make([]float64, len(sample))
				for i, idx := range sample {
					est[i] = tr.Records[idx].Score
				}
				tau, err := stats.KendallTau(est, truth)
				if err != nil {
					return nil, err
				}
				taus = append(taus, tau)
			}
			row := Fig9Row{App: name, Scheme: scheme}
			row.Tau, row.TauStd = stats.MeanStd(taus)
			rows = append(rows, row)
			line(w, "  %-8s %-8s tau %6.3f ± %.3f", row.App, row.Scheme, row.Tau, row.TauStd)
		}
	}
	return rows, nil
}

// tauSample is the ground truth of the rank-fidelity studies for one
// repetition of a campaign: TauSamples of its records drawn by an RNG
// seeded with Seed+salt+rep, each fully trained from its own checkpoint
// with early stopping (fullTrain, build seed Seed+ID). It returns the
// drawn record indices, in draw order, and their fully trained scores.
// salt keeps the draws of studies that share a campaign apart.
func (s *Suite) tauSample(c *Campaign, rep int, salt int64) (sample []int, truth []float64, err error) {
	recs := c.Traces[rep].Records
	rng := rand.New(rand.NewSource(s.Cfg.Seed + salt + int64(rep)))
	sample = rng.Perm(len(recs))[:min(s.Cfg.TauSamples, len(recs))]
	for _, idx := range sample {
		rec := recs[idx]
		h, err := s.fullTrain(c.App, c.Stores[rep], rec, s.Cfg.Seed+int64(rec.ID), true)
		if err != nil {
			return nil, nil, err
		}
		truth = append(truth, h.FinalScore())
	}
	return sample, truth, nil
}
