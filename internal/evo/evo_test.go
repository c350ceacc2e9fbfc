package evo

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"swtnas/internal/nn"
	"swtnas/internal/search"
)

func toySpace() *search.Space {
	nodes := []*search.VariableNode{
		{Name: "n0", Ops: []search.Op{search.OpIdentity(), search.OpDense(4), search.OpDense(8)}},
		{Name: "n1", Ops: []search.Op{search.OpIdentity(), search.OpDropout(0.5)}},
	}
	s := &search.Space{Name: "toy", Nodes: nodes, InputShapes: [][]int{{4}}}
	s.Assemble = func(b *search.Builder, arch search.Arch) error {
		ref := nn.GraphInput(0)
		var err error
		for i := range nodes {
			if ref, err = b.ApplyNode(i, ref); err != nil {
				return err
			}
		}
		flat, err := b.Flat(ref)
		if err != nil {
			return err
		}
		_, err = b.Net.Add(nn.NewDense("head", b.ShapeOf(flat)[0], 2, 0, b.RNG), flat)
		return err
	}
	return s
}

func TestEvolutionFillsPopulationWithRandoms(t *testing.T) {
	space := toySpace()
	s := NewRegularizedEvolution(space, 8, 4)
	rng := rand.New(rand.NewSource(2))
	archs := map[int]search.Arch{}
	for i := 0; i < 8; i++ {
		p := s.Propose(rng)
		if p.ParentID != -1 {
			t.Fatalf("proposal %d has a parent before the population filled", i)
		}
		archs[i] = p.Arch
		s.Report(Individual{ID: i, Arch: p.Arch, Score: rng.Float64()})
	}
	if s.PopulationSize() != 8 {
		t.Fatalf("population = %d", s.PopulationSize())
	}
	// From now on every proposal must be a d=1 mutation of a population
	// member (Algorithm 1 line 9: "d between the parent and the child is
	// always one!").
	for i := 0; i < 50; i++ {
		p := s.Propose(rng)
		if p.ParentID < 0 {
			t.Fatal("post-fill proposal lacks a parent")
		}
		if d := search.Distance(archs[p.ParentID], p.Arch); d != 1 {
			t.Fatalf("distance = %d, want 1", d)
		}
	}
}

func TestEvolutionAgesOutOldest(t *testing.T) {
	s := NewRegularizedEvolution(toySpace(), 4, 2)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		s.Report(Individual{ID: i, Arch: toySpace().Random(rng), Score: 0})
	}
	if s.PopulationSize() != 4 {
		t.Fatalf("population = %d, want 4 (aging)", s.PopulationSize())
	}
	// The survivors are the most recent, regardless of score: give the
	// oldest a huge score and check it still ages out.
	s2 := NewRegularizedEvolution(toySpace(), 2, 2)
	s2.Report(Individual{ID: 0, Score: 100})
	s2.Report(Individual{ID: 1, Score: 0})
	s2.Report(Individual{ID: 2, Score: 0})
	p := s2.Propose(rng)
	if p.ParentID == 0 {
		t.Fatal("aged-out individual was selected as parent")
	}
}

func TestEvolutionSelectsBestOfSample(t *testing.T) {
	// With S == N the sample is effectively the whole population, so the
	// best individual must always be the parent.
	space := toySpace()
	s := NewRegularizedEvolution(space, 6, 6)
	rng := rand.New(rand.NewSource(4))
	bestID := 3
	for i := 0; i < 6; i++ {
		score := 0.1
		if i == bestID {
			score = 0.9
		}
		s.Report(Individual{ID: i, Arch: space.Random(rng), Score: score})
	}
	for i := 0; i < 20; i++ {
		p := s.Propose(rng)
		if p.ParentID != bestID {
			t.Fatalf("parent = %d, want %d", p.ParentID, bestID)
		}
	}
}

func TestEvolutionDefaults(t *testing.T) {
	s := NewRegularizedEvolution(toySpace(), 0, 0)
	if s.N != 64 || s.S != 32 {
		t.Fatalf("defaults = N%d S%d, want N64 S32 (paper Section VII-C)", s.N, s.S)
	}
	s2 := NewRegularizedEvolution(toySpace(), 4, 9)
	if s2.S != 4 {
		t.Fatalf("S must clamp to N, got %d", s2.S)
	}
}

func TestEvolutionConcurrentReports(t *testing.T) {
	space := toySpace()
	s := NewRegularizedEvolution(space, 16, 8)
	rng := rand.New(rand.NewSource(5))
	arches := make([]search.Arch, 64)
	for i := range arches {
		arches[i] = space.Random(rng)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				s.Report(Individual{ID: w*16 + i, Arch: arches[w*16+i], Score: float64(i)})
			}
		}(w)
	}
	wg.Wait()
	if s.PopulationSize() != 16 {
		t.Fatalf("population = %d, want 16", s.PopulationSize())
	}
}

// TestEvolutionOnEvict: the eviction hook fires exactly for aged-out
// individuals, in FIFO order — the signal checkpoint GC keys on.
func TestEvolutionOnEvict(t *testing.T) {
	s := NewRegularizedEvolution(toySpace(), 3, 2)
	var evicted []int
	s.OnEvict = func(ind Individual) { evicted = append(evicted, ind.ID) }
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 7; i++ {
		s.Report(Individual{ID: i, Arch: toySpace().Random(rng), Score: float64(i)})
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

// TestDraftIsProposeAfterThePendingReport: a draft drawn with candidates
// pending, finished once they have reported, is the proposal Propose draws
// after those reports from the same RNG state — the same parent and child,
// while the population fills and once it is full, for best-score and
// Pareto parent choice, whichever pending members report Failed. Every
// pending member the sample holds is in Waits.
func TestDraftIsProposeAfterThePendingReport(t *testing.T) {
	space := toySpace()
	for _, pareto := range []bool{false, true} {
		for fails := 0; fails < 4; fails++ { // bit i: pending member i reports Failed
			for seed := int64(1); seed <= 40; seed++ {
				newStrategy := func() *RegularizedEvolution {
					if pareto {
						return NewParetoEvolution(space, 4, 2)
					}
					return NewRegularizedEvolution(space, 4, 2)
				}
				rng := rand.New(rand.NewSource(seed))
				committed := int(seed % 6) // 0–5 members reported before the draft
				var inds []Individual
				for id := 0; id < committed+2; id++ {
					inds = append(inds, Individual{ID: id, Arch: space.Random(rng), Score: float64(rng.Intn(4)), Params: rng.Intn(3)})
				}
				a, b := newStrategy(), newStrategy()
				for _, ind := range inds[:committed] {
					a.Report(ind)
					b.Report(ind)
				}
				pending := []int{committed, committed + 1}
				draw := rand.New(rand.NewSource(seed + 100))
				d := a.Draft(draw, pending)
				for _, id := range d.Waits() {
					if id != committed && id != committed+1 {
						t.Fatalf("seed %d: waits on %d, which is not pending", seed, id)
					}
				}
				for k, ind := range inds[committed:] {
					if fails>>k&1 == 1 {
						ind.Score, ind.Failed = 0, true
					}
					a.Report(ind)
					b.Report(ind)
				}
				got := d.Finish(draw)
				want := b.Propose(rand.New(rand.NewSource(seed + 100)))
				if got.ParentID != want.ParentID || search.Distance(got.Arch, want.Arch) != 0 {
					t.Fatalf("pareto=%v fails=%b seed %d: draft gives %+v, Propose %+v", pareto, fails, seed, got, want)
				}
			}
		}
	}
}

// TestFailedMemberRanksLast: a Failed member loses to every scored one, in
// best-score and in Pareto selection, even to a scored one below its zero
// score or with more parameters; a sample of Failed members only gives a
// child trained from scratch (ParentID -1); and a Failed member is never on
// a front beside a scored one.
func TestFailedMemberRanksLast(t *testing.T) {
	space := toySpace()
	rng := rand.New(rand.NewSource(3))
	failed := Individual{ID: 0, Arch: space.Random(rng), Failed: true}
	scored := Individual{ID: 1, Arch: space.Random(rng), Score: -1, Params: 10}
	for _, pareto := range []bool{false, true} {
		newStrategy := func() *RegularizedEvolution {
			if pareto {
				return NewParetoEvolution(space, 2, 2)
			}
			return NewRegularizedEvolution(space, 2, 2)
		}
		s := newStrategy()
		s.Report(failed)
		s.Report(scored)
		all := newStrategy()
		all.Report(failed)
		all.Report(Individual{ID: 2, Arch: space.Random(rng), Failed: true})
		for i := 0; i < 20; i++ {
			if p := s.Propose(rng); p.ParentID != scored.ID {
				t.Fatalf("pareto=%v: parent %d, want the scored member %d", pareto, p.ParentID, scored.ID)
			}
			if p := all.Propose(rng); p.ParentID != -1 {
				t.Fatalf("pareto=%v: an all-failed sample gives parent %d, want -1", pareto, p.ParentID)
			}
		}
	}
	if front := ParetoFront([]Individual{failed, scored}); len(front) != 1 || front[0].ID != scored.ID {
		t.Fatalf("front %+v, want only the scored member", front)
	}
	if Dominates(failed, scored) || !Dominates(scored, failed) || Dominates(failed, failed) {
		t.Fatal("a Failed member must dominate nothing and be dominated by every scored one")
	}
}

// wrapped hides a RegularizedEvolution behind the Strategy interface, as a
// custom strategy would.
type wrapped struct{ Strategy }

// TestDraftOfAnyStrategy: regularized evolution's DraftOf is its own Draft;
// any other strategy's waits on every pending candidate, draws nothing until
// Finish, and Finish is Propose from the same RNG state.
func TestDraftOfAnyStrategy(t *testing.T) {
	space := toySpace()
	s := NewRegularizedEvolution(space, 4, 2)
	for id := 0; id < 4; id++ {
		s.Report(Individual{ID: id, Arch: space.Random(rand.New(rand.NewSource(int64(id)))), Score: float64(id)})
	}
	if d := DraftOf(s, rand.New(rand.NewSource(1)), []int{4}); d.s != s || d.other != nil {
		t.Fatal("regularized evolution's DraftOf is not its own draft")
	}
	draw := rand.New(rand.NewSource(7))
	d := DraftOf(wrapped{s}, draw, []int{4, 5})
	if !slices.Equal(d.Waits(), []int{4, 5}) {
		t.Fatalf("waits %v, want every pending candidate", d.Waits())
	}
	got := d.Finish(draw)
	want := s.Propose(rand.New(rand.NewSource(7)))
	if got.ParentID != want.ParentID || search.Distance(got.Arch, want.Arch) != 0 {
		t.Fatalf("draft gives %+v, Propose %+v", got, want)
	}
}
