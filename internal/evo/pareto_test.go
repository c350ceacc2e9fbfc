package evo

import (
	"math/rand"
	"testing"

	"swtnas/internal/search"
)

func randomInds(rng *rand.Rand, n int) []Individual {
	inds := make([]Individual, n)
	for i := range inds {
		inds[i] = Individual{
			ID:     i,
			Score:  float64(rng.Intn(10)) / 10, // coarse grid: plenty of ties
			Params: (1 + rng.Intn(8)) * 1000,
		}
	}
	return inds
}

func idSet(inds []Individual) map[int]bool {
	s := make(map[int]bool, len(inds))
	for _, ind := range inds {
		s[ind.ID] = true
	}
	return s
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b Individual
		want bool
	}{
		{Individual{Score: 0.9, Params: 100}, Individual{Score: 0.8, Params: 200}, true},
		{Individual{Score: 0.9, Params: 100}, Individual{Score: 0.9, Params: 200}, true},
		{Individual{Score: 0.9, Params: 100}, Individual{Score: 0.8, Params: 100}, true},
		{Individual{Score: 0.9, Params: 100}, Individual{Score: 0.9, Params: 100}, false}, // equal
		{Individual{Score: 0.9, Params: 200}, Individual{Score: 0.8, Params: 100}, false}, // trade-off
		{Individual{Score: 0.8, Params: 200}, Individual{Score: 0.9, Params: 100}, false},
	}
	for i, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Fatalf("case %d: Dominates(%+v, %+v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

// Property: every front member is non-dominated in the input, and every
// non-member is dominated by someone.
func TestParetoFrontNonDomination(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		inds := randomInds(rng, 1+rng.Intn(40))
		front := ParetoFront(inds)
		if len(front) == 0 {
			t.Fatal("empty front from non-empty input")
		}
		in := idSet(front)
		for _, a := range inds {
			dominated := false
			for _, b := range inds {
				if a.ID != b.ID && Dominates(b, a) {
					dominated = true
					break
				}
			}
			if in[a.ID] == dominated {
				t.Fatalf("trial %d: individual %d front=%v dominated=%v", trial, a.ID, in[a.ID], dominated)
			}
		}
	}
}

// Property: the front is the same set under any permutation of the input.
func TestParetoFrontPermutationStable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		inds := randomInds(rng, 2+rng.Intn(30))
		want := idSet(ParetoFront(inds))
		shuffled := append([]Individual(nil), inds...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := idSet(ParetoFront(shuffled))
		if len(got) != len(want) {
			t.Fatalf("trial %d: front size changed under permutation: %d vs %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: member %d lost under permutation", trial, id)
			}
		}
	}
}

func TestParetoEvolutionFillsThenMutatesFrontParent(t *testing.T) {
	space := toySpace()
	s := NewParetoEvolution(space, 6, 6)
	rng := rand.New(rand.NewSource(5))
	archs := map[int]search.Arch{}
	for i := 0; i < 6; i++ {
		p := s.Propose(rng)
		if p.ParentID != -1 {
			t.Fatalf("proposal %d has a parent before the population filled", i)
		}
		archs[i] = p.Arch
		s.Report(Individual{ID: i, Arch: p.Arch, Score: float64(i) / 10, Params: 1000 * (i + 1)})
	}
	if s.PopulationSize() != 6 {
		t.Fatalf("population = %d", s.PopulationSize())
	}
	// With S == N the sample is the whole population. Individual 5 has the
	// best score but the most params; individual 0 the worst score but the
	// fewest params: both are on the front, as is every one between (higher
	// score always costs more params here) — so any member may parent. Check
	// the proposal is a d=1 mutation of its declared parent.
	for i := 0; i < 30; i++ {
		p := s.Propose(rng)
		if p.ParentID < 0 {
			t.Fatal("post-fill proposal lacks a parent")
		}
		if d := search.Distance(archs[p.ParentID], p.Arch); d > 1 {
			t.Fatalf("distance = %d, want <= 1", d)
		}
	}
}

// A dominated individual must never be selected as parent when S == N.
func TestParetoEvolutionSkipsDominatedParents(t *testing.T) {
	space := toySpace()
	s := NewParetoEvolution(space, 4, 4)
	rng := rand.New(rand.NewSource(6))
	archs := make([]search.Arch, 4)
	for i := range archs {
		archs[i] = space.Random(rng)
	}
	// 0 and 1 are the trade-off front; 2 and 3 are strictly dominated.
	s.Report(Individual{ID: 0, Arch: archs[0], Score: 0.9, Params: 5000})
	s.Report(Individual{ID: 1, Arch: archs[1], Score: 0.5, Params: 1000})
	s.Report(Individual{ID: 2, Arch: archs[2], Score: 0.4, Params: 6000})
	s.Report(Individual{ID: 3, Arch: archs[3], Score: 0.1, Params: 5000})
	for i := 0; i < 40; i++ {
		p := s.Propose(rng)
		if p.ParentID == 2 || p.ParentID == 3 {
			t.Fatalf("dominated individual %d selected as parent", p.ParentID)
		}
	}
}

func TestParetoEvolutionAgesOutOldest(t *testing.T) {
	space := toySpace()
	s := NewParetoEvolution(space, 3, 2)
	var evicted []int
	s.OnEvict = func(ind Individual) { evicted = append(evicted, ind.ID) }
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 7; i++ {
		s.Report(Individual{ID: i, Arch: space.Random(rng), Score: float64(i), Params: 100})
	}
	want := []int{0, 1, 2, 3}
	if len(evicted) != len(want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	for i := range want {
		if evicted[i] != want[i] {
			t.Fatalf("evicted %v, want %v", evicted, want)
		}
	}
	if s.PopulationSize() != 3 {
		t.Fatalf("population = %d, want 3", s.PopulationSize())
	}
}

func TestParetoEvolutionDefaults(t *testing.T) {
	s := NewParetoEvolution(toySpace(), 0, 0)
	if s.N != 64 || s.S != 32 {
		t.Fatalf("defaults = N%d S%d, want N64 S32", s.N, s.S)
	}
	if s2 := NewParetoEvolution(toySpace(), 4, 9); s2.S != 4 {
		t.Fatalf("S must clamp to N, got %d", s2.S)
	}
}
