package proxy

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"swtnas/internal/apps"
	"swtnas/internal/data"
	"swtnas/internal/evo"
	"swtnas/internal/nn"
	"swtnas/internal/search"
	"swtnas/internal/tensor"
	"swtnas/internal/trace"
)

func testApp(t *testing.T) *apps.App {
	t.Helper()
	app, err := apps.New("nt3", 1, apps.Config{Data: data.Config{TrainN: 32, ValN: 16}})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func buildNet(t *testing.T, app *apps.App, arch search.Arch, seed int64) *nn.Network {
	t.Helper()
	net, err := app.Space.Build(arch, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// Zero-cost scores are pure functions of (weights, batch): the same seeded
// initialization must score identically — the property crash-resume's
// decision replay rests on.
func TestScorersDeterministic(t *testing.T) {
	app := testApp(t)
	batch := app.Dataset.Train.Slice(0, 8)
	arch := app.Space.Random(rand.New(rand.NewSource(7)))
	for _, sc := range []struct {
		name  string
		score func(*nn.Network, nn.Loss, *nn.Data) (float64, error)
	}{{"gradnorm", GradNorm{}.Score}, {"jacobcov", JacobCov{}.Score}} {
		a, err := sc.score(buildNet(t, app, arch, 42), app.Space.Loss, batch)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		b, err := sc.score(buildNet(t, app, arch, 42), app.Space.Loss, batch)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if a != b {
			t.Fatalf("%s: scores differ across identical builds: %v vs %v", sc.name, a, b)
		}
		if math.IsNaN(a) || math.IsInf(a, 0) {
			t.Fatalf("%s: score = %v", sc.name, a)
		}
	}
}

func TestGradNormPositive(t *testing.T) {
	app := testApp(t)
	batch := app.Dataset.Train.Slice(0, 8)
	arch := app.Space.Random(rand.New(rand.NewSource(3)))
	gn, err := (GradNorm{}).Score(buildNet(t, app, arch, 1), app.Space.Loss, batch)
	if err != nil {
		t.Fatal(err)
	}
	if gn <= 0 {
		t.Fatalf("gradient norm = %v, want > 0 on an untrained net", gn)
	}
}

// The ridge surrogate must recover a noiseless linear relation closely
// enough to rank by it.
func TestSurrogateRecoversLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := &Surrogate{Lambda: 1e-8}
	f := func(x []float64) float64 { return 2*x[0] - x[1] + 0.5*x[2] + 0.25 }
	for i := 0; i < 40; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		s.Observe(x, f(x))
	}
	if s.Ready() {
		t.Fatal("surrogate ready before Fit")
	}
	if err := s.Fit(); err != nil {
		t.Fatal(err)
	}
	if !s.Ready() || s.Refits() != 1 {
		t.Fatalf("ready=%v refits=%d after one Fit", s.Ready(), s.Refits())
	}
	for i := 0; i < 10; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		pred, ok := s.Predict(x)
		if !ok {
			t.Fatal("Predict not ok after Fit")
		}
		if math.Abs(pred-f(x)) > 1e-5 {
			t.Fatalf("pred %v for truth %v", pred, f(x))
		}
	}
	// Post-fit observations feed the MAE series.
	x := []float64{0.5, 0.5, 0.5}
	s.Observe(x, f(x)+0.1)
	if mae := s.MAE(); math.Abs(mae-0.1) > 1e-4 {
		t.Fatalf("MAE = %v, want 0.1", mae)
	}
}

func TestSurrogateNeedsTwoObservations(t *testing.T) {
	s := &Surrogate{}
	s.Observe([]float64{1, 2}, 0.5)
	if err := s.Fit(); err == nil {
		t.Fatal("Fit succeeded with one observation")
	}
	if _, ok := s.Predict([]float64{1, 2}); ok {
		t.Fatal("Predict ok while unfitted")
	}
}

// countingStrategy hands out seeded random architectures and records reports.
type countingStrategy struct {
	space    *search.Space
	proposed int
	reported []int
}

func (c *countingStrategy) Propose(rng *rand.Rand) evo.Proposal {
	c.proposed++
	return evo.Proposal{Arch: c.space.Random(rng), ParentID: -1}
}
func (c *countingStrategy) Report(ind evo.Individual) { c.reported = append(c.reported, ind.ID) }

func newTestFilter(t *testing.T, app *apps.App, admit float64) (*Prefilter, *countingStrategy, evo.Strategy) {
	t.Helper()
	pf, err := NewPrefilter(FilterConfig{
		Space: app.Space,
		Loss:  app.Space.Loss,
		Batch: app.Dataset.Train.Slice(0, 8),
		Seed:  9,
		Admit: admit,
	})
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingStrategy{space: app.Space}
	return pf, inner, pf.Wrap(inner)
}

// One admission round must draw a full batch, admit exactly
// ceil(BatchSize*Admit), and reject the rest through OnFiltered in draw
// order.
func TestPrefilterAdmitFraction(t *testing.T) {
	app := testApp(t)
	pf, inner, strat := newTestFilter(t, app, 0.25)
	var rejected []trace.FilteredRecord
	pf.SetOnFiltered(func(fc trace.FilteredRecord) { rejected = append(rejected, fc) })
	rng := rand.New(rand.NewSource(1))
	p := strat.Propose(rng)
	if len(p.Arch) == 0 {
		t.Fatal("empty admitted proposal")
	}
	if p.ProxyScore == 0 {
		t.Fatal("admitted proposal has no proxy score")
	}
	st := pf.Stats()
	if st.Proposals != 8 || st.Admitted != 2 || st.Filtered != 6 {
		t.Fatalf("stats = %+v, want 8 proposals, 2 admitted (ceil(8*0.25)), 6 filtered", st)
	}
	if inner.proposed != 8 {
		t.Fatalf("inner saw %d proposals, want 8", inner.proposed)
	}
	if len(rejected) != 6 {
		t.Fatalf("OnFiltered fired %d times, want 6", len(rejected))
	}
	for i := 1; i < len(rejected); i++ {
		if rejected[i].Seq <= rejected[i-1].Seq {
			t.Fatalf("rejections out of draw order: %d then %d", rejected[i-1].Seq, rejected[i].Seq)
		}
	}
	for _, fc := range rejected {
		if fc.Params <= 0 {
			t.Fatalf("rejected candidate without params: %+v", fc)
		}
	}
	// The second Propose drains the queue without drawing a new batch.
	strat.Propose(rng)
	if st := pf.Stats(); st.Proposals != 8 {
		t.Fatalf("queue drain drew new proposals: %+v", st)
	}
	// The third admission round draws again.
	strat.Propose(rng)
	if st := pf.Stats(); st.Proposals != 16 {
		t.Fatalf("stats after second batch = %+v", st)
	}
}

// Two filters with identical configs and seeds must make identical
// admission decisions — the invariant that lets crash-resume regenerate
// filtered proposals without journaling them.
func TestPrefilterDecisionsDeterministic(t *testing.T) {
	app := testApp(t)
	run := func() (admitted []string, rejected []int) {
		pf, _, strat := newTestFilter(t, app, 0.5)
		pf.SetOnFiltered(func(fc trace.FilteredRecord) { rejected = append(rejected, fc.Seq) })
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 12; i++ {
			p := strat.Propose(rng)
			admitted = append(admitted, p.Arch.Key())
			strat.Report(evo.Individual{ID: i, Arch: p.Arch, Score: rng.Float64()})
		}
		return admitted, rejected
	}
	a1, r1 := run()
	a2, r2 := run()
	if len(a1) != len(a2) || len(r1) != len(r2) {
		t.Fatalf("run shapes differ: %d/%d admitted, %d/%d rejected", len(a1), len(a2), len(r1), len(r2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("admitted[%d] differs: %s vs %s", i, a1[i], a2[i])
		}
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("rejected seq[%d] differs: %d vs %d", i, r1[i], r2[i])
		}
	}
}

// Reports feed the surrogate: after MinFit admitted candidates finish, the
// filter fits it and switches its ranking to predictions.
func TestPrefilterFitsSurrogateFromReports(t *testing.T) {
	app := testApp(t)
	pf, err := NewPrefilter(FilterConfig{
		Space:  app.Space,
		Loss:   app.Space.Loss,
		Batch:  app.Dataset.Train.Slice(0, 8),
		Seed:   5,
		Admit:  1, // admit everything so reports accumulate fast
		MinFit: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingStrategy{space: app.Space}
	strat := pf.Wrap(inner)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8; i++ {
		p := strat.Propose(rng)
		strat.Report(evo.Individual{ID: i, Arch: p.Arch, Score: 0.1 * float64(i)})
	}
	if !pf.Surrogate().Ready() {
		t.Fatal("surrogate not fitted after MinFit reports")
	}
	if st := pf.Stats(); st.SurrogateRefits < 1 {
		t.Fatalf("stats = %+v, want at least one refit", st)
	}
	if len(inner.reported) != 8 {
		t.Fatalf("inner saw %d reports, want 8", len(inner.reported))
	}
}

// A Failed report drops the admitted proposal's features unobserved — it has
// no score to fit, and a later proposal of the same architecture must not be
// fitted against them — and still reaches the inner strategy.
func TestPrefilterDropsFailedFeatures(t *testing.T) {
	app := testApp(t)
	pf, err := NewPrefilter(FilterConfig{
		Space: app.Space, Loss: app.Space.Loss, Batch: app.Dataset.Train.Slice(0, 8),
		Seed: 5, Admit: 1, BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingStrategy{space: app.Space}
	strat := pf.Wrap(inner)
	rng := rand.New(rand.NewSource(13))
	p := strat.Propose(rng)
	if len(pf.feats) != 1 {
		t.Fatalf("%d feature keys pending after one admitted proposal, want 1", len(pf.feats))
	}
	strat.Report(evo.Individual{ID: 0, Arch: p.Arch, Failed: true})
	if len(pf.feats) != 0 || pf.Surrogate().Observations() != 0 {
		t.Fatalf("after a Failed report: %d feature keys pending, %d observations; want 0 and 0", len(pf.feats), pf.Surrogate().Observations())
	}
	p = strat.Propose(rng)
	strat.Report(evo.Individual{ID: 1, Arch: p.Arch, Score: 0.5})
	if len(pf.feats) != 0 || pf.Surrogate().Observations() != 1 {
		t.Fatalf("after a scored report: %d feature keys pending, %d observations; want 0 and 1", len(pf.feats), pf.Surrogate().Observations())
	}
	if !slices.Equal(inner.reported, []int{0, 1}) {
		t.Fatalf("inner saw reports %v, want [0 1]", inner.reported)
	}
}

func TestNewPrefilterValidates(t *testing.T) {
	app := testApp(t)
	if _, err := NewPrefilter(FilterConfig{Loss: app.Space.Loss, Batch: app.Dataset.Train}); err == nil {
		t.Fatal("missing Space accepted")
	}
	if _, err := NewPrefilter(FilterConfig{Space: app.Space, Loss: app.Space.Loss, Batch: app.Dataset.Train.Slice(0, 1)}); err == nil {
		t.Fatal("1-sample batch accepted")
	}
}

func TestScoreSeedDistinct(t *testing.T) {
	seen := map[int64]int{}
	for seq := 0; seq < 1000; seq++ {
		s := ScoreSeed(1, seq)
		if prev, ok := seen[s]; ok {
			t.Fatalf("ScoreSeed collision: seq %d and %d", prev, seq)
		}
		seen[s] = seq
	}
	if ScoreSeed(1, 0) == ScoreSeed(2, 0) {
		t.Fatal("different filter seeds collide at seq 0")
	}
}

func TestFeaturesShape(t *testing.T) {
	app := testApp(t)
	arch := app.Space.Random(rand.New(rand.NewSource(1)))
	feat := Features(app.Space, arch, 1.5, -0.5, 1000)
	if len(feat) != len(arch)+3 {
		t.Fatalf("feature dim = %d, want %d", len(feat), len(arch)+3)
	}
	for i := range arch {
		if feat[i] < 0 || feat[i] > 1 {
			t.Fatalf("node feature %d = %v, want [0,1]", i, feat[i])
		}
	}
	if feat[len(arch)] != 1.5 || feat[len(arch)+1] != -0.5 {
		t.Fatalf("proxy features misplaced: %v", feat)
	}
	if want := math.Log1p(1000); feat[len(arch)+2] != want {
		t.Fatalf("params feature = %v, want %v", feat[len(arch)+2], want)
	}
}

// One non-finite pair must not reach the fit: a +Inf feature (or a NaN
// score) in the normal equations makes every later prediction NaN, and
// admission then silently falls back to draw order.
func TestSurrogateDropsNonFinitePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := &Surrogate{Lambda: 1e-8}
	f := func(x []float64) float64 { return 2*x[0] - x[1] + 0.25 }
	for i := 0; i < 20; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		s.Observe(x, f(x))
	}
	s.Observe([]float64{math.Inf(1), 0.5}, 1)
	s.Observe([]float64{0.5, 0.5}, math.NaN())
	if n := s.Observations(); n != 20 {
		t.Fatalf("%d observations kept, want the 20 finite ones", n)
	}
	if err := s.Fit(); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, 0.6}
	if pred, ok := s.Predict(x); !ok || math.Abs(pred-f(x)) > 1e-5 {
		t.Fatalf("Predict = %v, %v after non-finite pairs, want %v", pred, ok, f(x))
	}
}

// infLoss is a loss whose gradient is +Inf everywhere: every scoring pass
// through it diverges.
type infLoss struct{ nn.Loss }

func (l infLoss) Forward(pred *tensor.Tensor, targets []float64) (float64, *tensor.Tensor) {
	loss, grad := l.Loss.Forward(pred, targets)
	grad.Fill(math.Inf(1))
	return loss, grad
}

// A proposal whose zero-cost scores are not finite is unscorable: it ranks
// +Inf like a scoring error (admitted, so the evaluator sees it), and its
// features never reach the surrogate.
func TestPrefilterNonFiniteScoreIsUnscorable(t *testing.T) {
	app := testApp(t)
	pf, err := NewPrefilter(FilterConfig{
		Space:  app.Space,
		Loss:   infLoss{app.Space.Loss},
		Batch:  app.Dataset.Train.Slice(0, 8),
		Seed:   5,
		Admit:  1,
		MinFit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	strat := pf.Wrap(&countingStrategy{space: app.Space})
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 8; i++ {
		p := strat.Propose(rng)
		if !math.IsInf(p.ProxyScore, 1) {
			t.Fatalf("proposal %d ranked %v, want +Inf (unscorable)", i, p.ProxyScore)
		}
		strat.Report(evo.Individual{ID: i, Arch: p.Arch, Score: 0.1 * float64(i)})
	}
	if n := pf.Surrogate().Observations(); n != 0 {
		t.Fatalf("the surrogate observed %d pairs from diverged scoring passes", n)
	}
}
