package experiments

import (
	"io"

	"swtnas/internal/proxy"
	"swtnas/internal/stats"
)

// ProxyRow is one application's rank-correlation study of the pre-training
// scores: Kendall's τ between each score and the fully trained ("ground
// truth") objective metric over the same sampled candidates. TauEst is the
// partial-training estimate (the search's own score, scheme LCS); TauGrad,
// TauJacob and TauSur are the gradient-norm proxy, the Jacobian-covariance
// proxy and the ridge surrogate fit on the rest of the trace.
type ProxyRow struct {
	App      string
	TauEst   float64
	TauGrad  float64
	TauJacob float64
	TauSur   float64
}

// Proxy runs the zero-cost-proxy rank-correlation study behind the
// -proxy-filter admission mode: how well does each score that is available
// before (or much cheaper than) training rank candidates, measured against
// full training? TauSamples candidates per repetition are fully trained from
// their checkpoints exactly as in Fig9 (tauSample); the surrogate is fit on
// the trace records outside the sample, so its τ is out-of-sample. τ is
// computed per repetition and averaged.
func (s *Suite) Proxy(w io.Writer) ([]ProxyRow, error) {
	line(w, "Proxy study: Kendall's tau of pre-training scores vs fully trained metrics (scheme LCS)")
	var rows []ProxyRow
	for _, name := range s.Cfg.Apps {
		c, err := s.Campaign(name, "LCS")
		if err != nil {
			return nil, err
		}
		app := c.App
		bn := app.Dataset.Train.N()
		if bn > 16 {
			bn = 16
		}
		batch := app.Dataset.Train.Slice(0, bn)
		// taus[j][rep] is score j's τ in repetition rep, j in ProxyRow's
		// order: estimate, gradient norm, JacobCov, surrogate.
		var taus [4][]float64
		for rep, tr := range c.Traces {
			// Zero-cost scores for every record: one minibatch through a
			// freshly initialized network — the same signal the pre-filter
			// sees before admitting a proposal.
			gns := make([]float64, len(tr.Records))
			jcs := make([]float64, len(tr.Records))
			feats := make([][]float64, len(tr.Records))
			for i, rec := range tr.Records {
				net, err := buildReceiver(app, rec.Arch, s.Cfg.Seed+int64(rec.ID))
				if err != nil {
					return nil, err
				}
				gn, err := (proxy.GradNorm{}).Score(net, app.Space.Loss, batch)
				if err != nil {
					return nil, err
				}
				jc, err := (proxy.JacobCov{}).Score(net, app.Space.Loss, batch)
				if err != nil {
					return nil, err
				}
				gns[i], jcs[i] = gn, jc
				feats[i] = proxy.Features(app.Space, rec.Arch, gn, jc, rec.Params)
			}
			sample, truth, err := s.tauSample(c, rep, 9500)
			if err != nil {
				return nil, err
			}
			inSample := make(map[int]bool, len(sample))
			for _, idx := range sample {
				inSample[idx] = true
			}
			sur := &proxy.Surrogate{}
			for i, rec := range tr.Records {
				if !inSample[i] {
					sur.Observe(feats[i], rec.Score)
				}
			}
			// Too few out-of-sample points leave the surrogate unfit; its
			// predictions then default to zero and its τ to zero.
			sur.Fit() //nolint:errcheck

			var cols [4][]float64
			for _, idx := range sample {
				p, _ := sur.Predict(feats[idx])
				for j, v := range [4]float64{tr.Records[idx].Score, gns[idx], jcs[idx], p} {
					cols[j] = append(cols[j], v)
				}
			}
			for j := range cols {
				tau, err := stats.KendallTau(cols[j], truth)
				if err != nil {
					return nil, err
				}
				taus[j] = append(taus[j], tau)
			}
		}
		row := ProxyRow{App: name, TauEst: stats.Mean(taus[0]), TauGrad: stats.Mean(taus[1]),
			TauJacob: stats.Mean(taus[2]), TauSur: stats.Mean(taus[3])}
		rows = append(rows, row)
		line(w, "  %-8s tau(estimate) %6.3f  tau(gradnorm) %6.3f  tau(jacobcov) %6.3f  tau(surrogate) %6.3f",
			row.App, row.TauEst, row.TauGrad, row.TauJacob, row.TauSur)
	}
	return rows, nil
}
