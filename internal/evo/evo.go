// Package evo implements the NAS search strategy: regularized (aging)
// evolution — the strategy the paper integrates weight transfer into
// (Algorithm 1) — with best-score or Pareto parent selection.
package evo

import (
	"math/rand"
	"sync"

	"swtnas/internal/search"
)

// Individual is one scored candidate inside a strategy's state.
type Individual struct {
	// ID is the candidate id assigned by the scheduler.
	ID int
	// Arch is the architecture sequence.
	Arch search.Arch
	// Score is the estimated objective metric.
	Score float64
	// Params is the trainable-parameter count, the second objective of
	// Pareto (multi-objective) selection; 0 when the scheduler predates it.
	Params int
}

// Proposal is a candidate the strategy wants evaluated next.
type Proposal struct {
	// Arch is the proposed architecture sequence.
	Arch search.Arch
	// ParentID is the provider candidate for weight transfer, or -1 when
	// the candidate should train from scratch (random/seed candidates).
	ParentID int
	// ProxyScore is the admission score a proxy pre-filter attached (the
	// surrogate prediction or zero-cost score); 0 when no filter ran.
	ProxyScore float64
}

// Strategy proposes candidates and absorbs results. Implementations are
// safe for concurrent use: the scheduler may call Propose and Report from
// its own goroutine while evaluators run.
type Strategy interface {
	// Propose returns the next candidate to evaluate.
	Propose(rng *rand.Rand) Proposal
	// Report delivers a scored candidate.
	Report(ind Individual)
}

// RegularizedEvolution is the aging-evolution strategy of Real et al.
// (AAAI'19) as described in the paper's Algorithm 1: a FIFO population of
// the N most recently scored candidates; each proposal samples S of them,
// takes the best as parent, and mutates one variable node — so the
// architecture distance between parent (provider) and child (receiver) is
// exactly 1, which is what makes provider selection free.
//
// NewParetoEvolution builds the same aging population with multi-objective
// parent selection; only the choice of parent within the sample differs.
type RegularizedEvolution struct {
	space *search.Space
	// N is the population size (paper: 64), S the sample size (paper: 32).
	N, S int

	// OnEvict, when non-nil, is invoked (outside the strategy lock) for each
	// individual aged out of the population. An evicted individual can never
	// be sampled as a parent again, so the scheduler uses this hook to
	// garbage-collect its checkpoint. Set it before the search starts.
	OnEvict func(Individual)

	// pareto selects a uniformly drawn member of the sample's Pareto front
	// as parent instead of the sample's best score.
	pareto bool

	mu  sync.Mutex
	pop []Individual // FIFO queue, oldest first
}

// NewRegularizedEvolution creates the strategy with the paper's defaults
// when n or s are non-positive (N=64, S=32).
func NewRegularizedEvolution(space *search.Space, n, s int) *RegularizedEvolution {
	if n <= 0 {
		n = 64
	}
	if s <= 0 {
		s = 32
	}
	if s > n {
		s = n
	}
	return &RegularizedEvolution{space: space, N: n, S: s}
}

// Propose returns a random candidate while the population is filling, and a
// single-node mutation of the parent selected among S sampled individuals
// afterwards.
func (s *RegularizedEvolution) Propose(rng *rand.Rand) Proposal {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pop) < s.N {
		return Proposal{Arch: s.space.Random(rng), ParentID: -1}
	}
	// Sample S distinct individuals (Algorithm 1 line 6).
	sample := make([]Individual, s.S)
	for i, idx := range rng.Perm(len(s.pop))[:s.S] {
		sample[i] = s.pop[idx]
	}
	parent := sample[0]
	if s.pareto {
		front := ParetoFront(sample)
		parent = front[rng.Intn(len(front))]
	} else {
		for _, cand := range sample[1:] {
			if cand.Score > parent.Score {
				parent = cand
			}
		}
	}
	child, err := s.space.Mutate(parent.Arch, rng)
	if err != nil {
		// The space has no mutable nodes; degenerate but valid — repeat
		// the parent architecture.
		child = parent.Arch.Clone()
	}
	return Proposal{Arch: child, ParentID: parent.ID}
}

// Report pushes the scored candidate into the population, aging out the
// oldest member beyond capacity (Algorithm 1 lines 4-5) and notifying
// OnEvict of the aged-out individual.
func (s *RegularizedEvolution) Report(ind Individual) {
	s.mu.Lock()
	s.pop = append(s.pop, ind)
	var evicted *Individual
	if len(s.pop) > s.N {
		ev := s.pop[0]
		s.pop = s.pop[1:]
		evicted = &ev
	}
	cb := s.OnEvict
	s.mu.Unlock()
	if evicted != nil && cb != nil {
		cb(*evicted)
	}
}

// PopulationSize reports the current population fill (tests/diagnostics).
func (s *RegularizedEvolution) PopulationSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pop)
}
