package proxy

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"swtnas/internal/evo"
	"swtnas/internal/nn"
	"swtnas/internal/search"
	"swtnas/internal/trace"
)

// FilterConfig parameterizes a Prefilter.
type FilterConfig struct {
	// Space builds candidate networks for scoring. Required.
	Space *search.Space
	// Loss drives the scoring backward passes. Required.
	Loss nn.Loss
	// Batch is the fixed scoring minibatch — typically the first few
	// training samples, so every proposal is scored on identical data.
	// Required.
	Batch *nn.Data
	// Seed derives the deterministic per-proposal initialization seeds;
	// use the search seed so resume replays identical scores.
	Seed int64
	// Admit is the fraction of each scored proposal batch admitted to real
	// training; <=0 defaults to 0.5, and at least one proposal per batch is
	// always admitted.
	Admit float64
	// BatchSize is how many proposals are drawn and scored per admission
	// round; <=0 defaults to 8.
	BatchSize int
	// MinFit is the observation count at which the surrogate first fits
	// (<=0 defaults to 12); RefitEvery is the refit cadence after that
	// (<=0 defaults to 8).
	MinFit, RefitEvery int
}

// Stats summarizes a Prefilter's work so far.
type Stats struct {
	// Proposals counts proposals drawn from the wrapped strategy.
	Proposals int64
	// Admitted and Filtered split the scored proposals.
	Admitted int64
	Filtered int64
	// SurrogateRefits counts successful surrogate fits.
	SurrogateRefits int64
	// SurrogateMAE is the surrogate's mean absolute prediction error over
	// post-fit observations (0 until the first fit).
	SurrogateMAE float64
}

// Prefilter screens an evo strategy's proposals with zero-cost scores and
// the online surrogate: Wrap returns a Strategy that draws proposals in
// batches from the inner strategy, scores each one, admits the top Admit
// fraction and rejects the rest through OnFiltered. Scoring is a pure
// function of (Seed, draw number, architecture), and the scheduler calls
// Propose/Report in a replay-reproducible order, so a crash-resumed search
// makes identical admission decisions without journaling them.
type Prefilter struct {
	cfg FilterConfig
	sur *Surrogate

	mu         sync.Mutex
	onFiltered func(trace.FilteredRecord)
	queue      []evo.Proposal
	drawn      int // proposals drawn from the inner strategy
	admitted   int64
	filtered   int64
	sinceFit   int
	feats      map[string][][]float64 // arch key -> features awaiting Report
}

// NewPrefilter validates the config and creates the filter.
func NewPrefilter(cfg FilterConfig) (*Prefilter, error) {
	if cfg.Space == nil || cfg.Loss == nil || cfg.Batch == nil {
		return nil, fmt.Errorf("proxy: FilterConfig needs Space, Loss and Batch")
	}
	if cfg.Batch.N() < 2 {
		return nil, fmt.Errorf("proxy: scoring batch needs at least 2 samples, has %d", cfg.Batch.N())
	}
	if cfg.Admit <= 0 {
		cfg.Admit = 0.5
	}
	if cfg.Admit > 1 {
		cfg.Admit = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	if cfg.MinFit <= 0 {
		cfg.MinFit = 12
	}
	if cfg.RefitEvery <= 0 {
		cfg.RefitEvery = 8
	}
	return &Prefilter{
		cfg:   cfg,
		sur:   &Surrogate{},
		feats: map[string][][]float64{},
	}, nil
}

// SetOnFiltered installs the rejection callback. It is invoked from
// whatever goroutine calls Propose (the scheduler), before the admitted
// proposal of the same batch is returned. Set it before the search starts.
func (p *Prefilter) SetOnFiltered(fn func(trace.FilteredRecord)) {
	p.mu.Lock()
	p.onFiltered = fn
	p.mu.Unlock()
}

// Stats snapshots the filter's counters.
func (p *Prefilter) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Proposals:       int64(p.drawn),
		Admitted:        p.admitted,
		Filtered:        p.filtered,
		SurrogateRefits: p.sur.Refits(),
		SurrogateMAE:    p.sur.MAE(),
	}
}

// Surrogate exposes the filter's online predictor (experiments, tests).
func (p *Prefilter) Surrogate() *Surrogate { return p.sur }

// Wrap returns inner screened by the filter. A Prefilter must wrap exactly
// one strategy per search.
func (p *Prefilter) Wrap(inner evo.Strategy) evo.Strategy {
	return &filterStrategy{p: p, inner: inner}
}

// scored is one drawn proposal with everything the admission ranking needs.
type scored struct {
	prop  evo.Proposal
	feat  []float64
	rank  float64
	param int
}

// filterStrategy is the Strategy the scheduler sees: batched drawing and
// scoring on Propose, surrogate feedback on Report.
type filterStrategy struct {
	p     *Prefilter
	inner evo.Strategy
}

// Propose returns the next admitted proposal, drawing and scoring a fresh
// batch from the inner strategy when the admitted queue is empty.
func (f *filterStrategy) Propose(rng *rand.Rand) evo.Proposal {
	p := f.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) > 0 {
		next := p.queue[0]
		p.queue = p.queue[1:]
		return next
	}
	batch := make([]scored, 0, p.cfg.BatchSize)
	seqBase := p.drawn
	for i := 0; i < p.cfg.BatchSize; i++ {
		prop := f.inner.Propose(rng)
		p.drawn++
		mProposals.Inc()
		s, err := p.score(prop, seqBase+i)
		if err != nil {
			// An unbuildable or unscorable proposal cannot be ranked; admit
			// it untouched, with no features for the surrogate, so the
			// evaluator surfaces the real error instead of the filter
			// hiding it.
			s = scored{prop: prop, rank: math.Inf(1)}
		}
		batch = append(batch, s)
	}
	// Admission: the top ceil(BatchSize*Admit) by rank score, ties broken
	// by draw order so the decision is deterministic.
	admit := int(math.Ceil(float64(len(batch)) * p.cfg.Admit))
	if admit < 1 {
		admit = 1
	}
	order := make([]int, len(batch))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < admit; i++ {
		best := i
		for j := i + 1; j < len(order); j++ {
			if batch[order[j]].rank > batch[order[best]].rank {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	admittedIdx := append([]int(nil), order[:admit]...)
	// Rejections fire in draw order; admitted proposals queue in draw order
	// too, preserving the inner strategy's proposal sequence shape.
	isAdmitted := map[int]bool{}
	for _, i := range admittedIdx {
		isAdmitted[i] = true
	}
	for i, s := range batch {
		if isAdmitted[i] {
			s.prop.ProxyScore = s.rank
			if s.feat != nil {
				key := s.prop.Arch.Key()
				p.feats[key] = append(p.feats[key], s.feat)
			}
			p.queue = append(p.queue, s.prop)
			p.admitted++
			mAdmitted.Inc()
			continue
		}
		p.filtered++
		mFiltered.Inc()
		if p.onFiltered != nil {
			p.onFiltered(trace.FilteredRecord{
				Seq:        seqBase + i,
				Arch:       s.prop.Arch,
				ParentID:   s.prop.ParentID,
				ProxyScore: s.rank,
				Params:     s.param,
			})
		}
	}
	next := p.queue[0]
	p.queue = p.queue[1:]
	return next
}

// Report feeds the surrogate with the admitted candidate's real score, then
// forwards to the inner strategy. A Failed candidate's features are dropped
// unobserved: it has no score to fit.
func (f *filterStrategy) Report(ind evo.Individual) {
	p := f.p
	p.mu.Lock()
	key := ind.Arch.Key()
	if pending := p.feats[key]; len(pending) > 0 {
		feat := pending[0]
		if len(pending) == 1 {
			delete(p.feats, key)
		} else {
			p.feats[key] = pending[1:]
		}
		if !ind.Failed {
			p.sur.Observe(feat, ind.Score)
			p.sinceFit++
			if n := p.sur.Observations(); n >= p.cfg.MinFit && p.sinceFit >= p.cfg.RefitEvery {
				p.sinceFit = 0
				p.fitLocked()
			} else if n >= p.cfg.MinFit && !p.sur.Ready() {
				p.fitLocked()
			}
		}
	}
	p.mu.Unlock()
	f.inner.Report(ind)
}

// fitLocked refits the surrogate, tolerating singular systems (the filter
// simply keeps ranking by gradient norm until the trace is richer).
func (p *Prefilter) fitLocked() {
	_ = p.sur.Fit() //nolint:errcheck // fallback ranking stays in effect
}

// score builds the proposal's network deterministically and computes its
// features and rank score. The initialization seed mixes the filter seed
// with the draw number, so the same search position always scores the same.
func (p *Prefilter) score(prop evo.Proposal, seq int) (scored, error) {
	t := mScoreSeconds.Start()
	defer t.Stop()
	net, _, err := p.cfg.Space.BuildSeeded(prop.Arch, ScoreSeed(p.cfg.Seed, seq))
	if err != nil {
		return scored{}, err
	}
	gn, err := GradNorm{}.Score(net, p.cfg.Loss, p.cfg.Batch)
	if err != nil {
		return scored{}, err
	}
	jc, err := JacobCov{}.Score(net, p.cfg.Loss, p.cfg.Batch)
	if err != nil {
		return scored{}, err
	}
	if !finite(gn) || !finite(jc) {
		// A diverged scoring pass: as unscorable as an error, and a
		// non-finite feature would make every later prediction NaN.
		return scored{}, fmt.Errorf("proxy: non-finite zero-cost score (gradient norm %v, jacobcov %v)", gn, jc)
	}
	params := net.ParamCount()
	feat := Features(p.cfg.Space, prop.Arch, gn, jc, params)
	rank := gn // pre-surrogate ranking: raw gradient-norm proxy
	if pred, ok := p.sur.Predict(feat); ok {
		rank = pred
	}
	return scored{prop: prop, feat: feat, rank: rank, param: params}, nil
}

// ScoreSeed derives the deterministic initialization seed of draw number
// seq, the scoring counterpart of nas.TaskSeed.
func ScoreSeed(filterSeed int64, seq int) int64 {
	return filterSeed*1_000_033 + 7_919*int64(seq) + 1
}

// Features assembles the surrogate's feature vector: per-node choice
// indices normalized to [0,1], the two zero-cost scores, and log(1+params).
func Features(space *search.Space, arch search.Arch, gradNorm, jacobCov float64, params int) []float64 {
	feat := make([]float64, 0, len(arch)+3)
	for i, c := range arch {
		den := len(space.Nodes[i].Ops) - 1
		if den < 1 {
			den = 1
		}
		feat = append(feat, float64(c)/float64(den))
	}
	return append(feat, gradNorm, jacobCov, math.Log1p(float64(params)))
}
