package experiments

import (
	"io"
	"math/rand"

	"swtnas/internal/core"
	"swtnas/internal/trace"
)

// Fig2Row is one bar of Figure 2: the percentage of candidate pairs with at
// least one identically shaped tensor ("shareable pairs").
type Fig2Row struct {
	App      string
	Pairs    int
	SharePct float64
}

// Fig2 reproduces Figure 2. The paper samples 10,000 pairs from DeepHyper
// NAS traces; here the trace is a uniform sample of TraceBudget candidates
// (shape sequences only — no training is needed for this predicate).
func (s *Suite) Fig2(w io.Writer) ([]Fig2Row, error) {
	line(w, "Fig 2: percentage of shareable candidate pairs (>=1 identical tensor shape)")
	var rows []Fig2Row
	for _, name := range s.Cfg.Apps {
		app, err := s.App(name)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.Cfg.Seed + 1000))
		tr := &trace.Trace{App: name}
		// kernel sequences (primary weight shapes) are the
		// paper-comparable predicate; every-tensor sequences (incl.
		// biases and BN statistics) are reported alongside — the fixed
		// output head makes that variant trivially ~100%.
		kernelSeqs := make([]core.ShapeSeq, s.Cfg.TraceBudget)
		allSeqs := make([]core.ShapeSeq, s.Cfg.TraceBudget)
		for i := 0; i < s.Cfg.TraceBudget; i++ {
			arch := app.Space.Random(rng)
			net, err := buildReceiver(app, arch, s.Cfg.Seed+int64(i))
			if err != nil {
				return nil, err
			}
			kernelSeqs[i] = core.ShapeSeqOfNetwork(net)
			allSeqs[i] = core.AllTensorShapes(net)
			tr.Records = append(tr.Records, trace.Record{ID: i, Arch: arch})
		}
		pairs, err := tr.SamplePairs(rng, s.Cfg.TracePairs)
		if err != nil {
			return nil, err
		}
		shareable, shareableAll := 0, 0
		for _, p := range pairs {
			if core.SharesAnyShape(kernelSeqs[p.A], kernelSeqs[p.B]) {
				shareable++
			}
			if core.SharesAnyShape(allSeqs[p.A], allSeqs[p.B]) {
				shareableAll++
			}
		}
		row := Fig2Row{App: name, Pairs: len(pairs), SharePct: pct(shareable, len(pairs))}
		rows = append(rows, row)
		line(w, "  %-8s shareable %6.1f%% of %d pairs (kernels; %.1f%% counting biases/BN stats)",
			row.App, row.SharePct, row.Pairs, pct(shareableAll, len(pairs)))
	}
	return rows, nil
}
