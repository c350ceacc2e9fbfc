package nas

import (
	"sort"

	"swtnas/internal/checkpoint"
	"swtnas/internal/obs"
)

var mGCDeleted = obs.GetCounter("nas.gc.checkpoints.deleted")

// candidateGC releases the checkpoints of candidates the search can no
// longer use — journal compaction done right: instead of rewriting the log,
// dominated candidates drop their blob references and the content-addressed
// store reclaims whatever nothing else shares.
//
// A candidate's checkpoint may be deleted once three conditions hold:
// it has been evicted from the strategy's population (it can never be
// sampled as a parent again), it is outside the running top-K scores (it
// can never appear in the final ranking the run reports), and no task the
// search issued and has not committed names it as transfer provider, so
// collection defers while an evaluation that needs the parent may run. Run
// sweeps no more once a task is cancelled, as a resumed run re-issues it.
//
// All methods are called from the scheduler goroutine only, so the struct
// needs no locking.
type candidateGC struct {
	store  checkpoint.Store
	retain int

	scores  map[int]float64 // candidates whose checkpoint is (or was) in the store
	evicted map[int]bool    // aged out of the population, awaiting collection
}

func newCandidateGC(store checkpoint.Store, retain int) *candidateGC {
	return &candidateGC{
		store:   store,
		retain:  retain,
		scores:  map[int]float64{},
		evicted: map[int]bool{},
	}
}

// completed records a finished candidate's score.
func (g *candidateGC) completed(id int, score float64) {
	if g == nil {
		return
	}
	g.scores[id] = score
}

// evict marks a candidate aged out of the population (evo.OnEvict hook).
func (g *candidateGC) evict(id int) {
	if g == nil {
		return
	}
	g.evicted[id] = true
}

// sweep deletes every eligible checkpoint; open holds the uncommitted
// tasks, whose providers stay. Deletion is best effort: an id whose
// checkpoint was already dropped (e.g. a resumed run that skipped a
// collected manifest) is simply forgotten.
func (g *candidateGC) sweep(open map[int]Task) {
	if g == nil || len(g.evicted) == 0 {
		return
	}
	top := g.topK()
	pinned := map[int]bool{}
	for _, t := range open {
		pinned[t.ParentID] = true
	}
	for id := range g.evicted {
		if pinned[id] || top[id] {
			continue
		}
		if err := g.store.Delete(CandidateID(id)); err == nil {
			mGCDeleted.Inc()
		}
		delete(g.evicted, id)
		delete(g.scores, id)
	}
}

// topK returns the ids whose scores place them within the retain best.
// Every candidate tied with the cutoff score is retained, so whatever
// tie-breaking the final ranking (trace.TopK) applies, a possible top-K
// member is never collected.
func (g *candidateGC) topK() map[int]bool {
	if len(g.scores) == 0 {
		return nil
	}
	scores := make([]float64, 0, len(g.scores))
	for _, s := range g.scores {
		scores = append(scores, s)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	k := g.retain
	if k > len(scores) {
		k = len(scores)
	}
	cut := scores[k-1]
	top := make(map[int]bool, k)
	for id, s := range g.scores {
		if s >= cut {
			top[id] = true
		}
	}
	return top
}
