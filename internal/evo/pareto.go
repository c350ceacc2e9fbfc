package evo

import "swtnas/internal/search"

// Dominates reports whether a Pareto-dominates b under the two search
// objectives: maximize Score, minimize Params. a dominates b when it is no
// worse on both and strictly better on at least one; equal individuals
// dominate in neither direction, so both survive a front. A Failed
// individual dominates nothing, and every scored one dominates it.
func Dominates(a, b Individual) bool {
	if a.Failed || b.Failed {
		return !a.Failed
	}
	if a.Score < b.Score || a.Params > b.Params {
		return false
	}
	return a.Score > b.Score || a.Params < b.Params
}

// ParetoFront returns the non-dominated subset of inds, preserving input
// order. The front is permutation-stable as a set: reordering inds reorders
// the returned slice but never changes which individuals are in it.
func ParetoFront(inds []Individual) []Individual {
	var front []Individual
	for i, a := range inds {
		dominated := false
		for j, b := range inds {
			if i != j && Dominates(b, a) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, a)
		}
	}
	return front
}

// ParetoEvolution is regularized evolution with multi-objective parent
// selection (the accuracy×complexity search of surrogate-assisted NAS,
// arXiv:2011.13591): the same aging FIFO population, report and eviction,
// but each proposal samples S individuals and mutates a uniformly drawn
// member of the sample's Pareto front (score maximized, parameters
// minimized) instead of the single best score — keeping small accurate
// models in the breeding pool instead of letting large ones crowd them out.
type ParetoEvolution = RegularizedEvolution

// NewParetoEvolution creates the strategy with the paper's population
// defaults when n or s are non-positive (N=64, S=32).
func NewParetoEvolution(space *search.Space, n, s int) *ParetoEvolution {
	e := NewRegularizedEvolution(space, n, s)
	e.pareto = true
	return e
}
