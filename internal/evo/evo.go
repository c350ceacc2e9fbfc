// Package evo implements the NAS search strategy: regularized (aging)
// evolution — the strategy the paper integrates weight transfer into
// (Algorithm 1) — with best-score or Pareto parent selection.
package evo

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"swtnas/internal/search"
)

// Individual is one evaluated candidate inside a strategy's state.
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
	// Failed marks a candidate that has no score (it diverged, or ran out
	// of retries). It is a member ranked below every scored one, and never
	// a provider: a child of a Failed parent trains from scratch.
	Failed bool
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
	// Report delivers an evaluated candidate, Failed or scored.
	Report(ind Individual)
}

// RegularizedEvolution is the aging-evolution strategy of Real et al.
// (AAAI'19) as described in the paper's Algorithm 1: a FIFO population of
// the N most recently evaluated candidates; each proposal samples S of them,
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
// afterwards. It is a Draft with no pending candidate, finished at once.
func (s *RegularizedEvolution) Propose(rng *rand.Rand) Proposal {
	return s.Draft(rng, nil).Finish(rng)
}

// Draft is a proposal drawn as far as the population allows: its random
// architecture, or its sample of S members. Finish makes the remaining
// draws once every pending member it sampled (Waits) has reported.
type Draft struct {
	s      *RegularizedEvolution
	other  Strategy     // a strategy that does not draft: Finish proposes
	random search.Arch  // drawn while the population fills
	sample []Individual // the sampled members in draw order; a pending one holds only its ID
	waits  []int        // the pending members in sample
}

// DraftOf drafts s's next proposal against the pending candidates: regularized
// evolution's own Draft, or any other strategy's, which draws nothing, waits
// on every pending candidate and finishes with s.Propose.
func DraftOf(s Strategy, rng *rand.Rand, pending []int) *Draft {
	if re, ok := s.(*RegularizedEvolution); ok {
		return re.Draft(rng, pending)
	}
	return &Draft{other: s, waits: pending}
}

// Draft draws the next proposal against the population as it will stand once
// the pending candidates (issued, not yet reported, in the order they will
// report) have joined it: each counts as a member whose score is not yet
// known. With no pending candidate it takes Propose's draws; with some, it
// takes the draws Propose would take after they had all reported.
func (s *RegularizedEvolution) Draft(rng *rand.Rand, pending []int) *Draft {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := &Draft{s: s}
	n := len(s.pop) + len(pending)
	if n < s.N {
		d.random = s.space.Random(rng)
		return d
	}
	// Sample S distinct individuals (Algorithm 1 line 6) of the N youngest:
	// the oldest n-N age out as the pending candidates report.
	off := n - s.N
	d.sample = make([]Individual, s.S)
	for i, idx := range rng.Perm(s.N)[:s.S] {
		if j := off + idx; j < len(s.pop) {
			d.sample[i] = s.pop[j]
		} else {
			d.sample[i] = Individual{ID: pending[j-len(s.pop)]}
			d.waits = append(d.waits, d.sample[i].ID)
		}
	}
	return d
}

// Waits returns the pending candidates the draft sampled, whose reports
// Finish needs.
func (d *Draft) Waits() []int { return d.waits }

// Finish completes the proposal with the draws that follow the sample:
// the parent's choice and its mutation. Every candidate Waits names must
// have reported, and none but the pending ones since the draft.
func (d *Draft) Finish(rng *rand.Rand) Proposal {
	if d.other != nil {
		return d.other.Propose(rng)
	}
	if d.random != nil {
		return Proposal{Arch: d.random, ParentID: -1}
	}
	s := d.s
	sample := d.sample
	if len(d.waits) > 0 {
		s.mu.Lock()
		for i := range sample {
			if slices.Contains(d.waits, sample[i].ID) {
				sample[i] = s.memberLocked(sample[i].ID)
			}
		}
		s.mu.Unlock()
	}
	parent := sample[0]
	if s.pareto {
		front := ParetoFront(sample)
		parent = front[rng.Intn(len(front))]
	} else {
		for _, cand := range sample[1:] {
			if !cand.Failed && (parent.Failed || cand.Score > parent.Score) {
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
	if parent.Failed {
		// Every sampled member failed: a Failed member has no checkpoint.
		return Proposal{Arch: child, ParentID: -1}
	}
	return Proposal{Arch: child, ParentID: parent.ID}
}

// memberLocked returns the population member id. Callers hold s.mu.
func (s *RegularizedEvolution) memberLocked(id int) Individual {
	for _, ind := range s.pop {
		if ind.ID == id {
			return ind
		}
	}
	panic(fmt.Sprintf("evo: candidate %d has not reported", id))
}

// Report pushes the evaluated candidate into the population, aging out the
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
