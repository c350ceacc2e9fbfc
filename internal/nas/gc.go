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
// can never appear in the final ranking the run reports), and no issued
// task still names it as transfer provider. The last condition is tracked
// with per-parent reference counts so eviction defers while an evaluation
// that needs the parent is in flight.
//
// All methods are called from the scheduler goroutine only, so the struct
// needs no locking.
type candidateGC struct {
	store  checkpoint.Store
	retain int

	scores  map[int]float64 // candidates whose checkpoint is (or was) in the store
	refs    map[int]int     // parent id -> issued-but-unfinished tasks using it
	evicted map[int]bool    // aged out of the population, awaiting collection
}

func newCandidateGC(store checkpoint.Store, retain int) *candidateGC {
	return &candidateGC{
		store:   store,
		retain:  retain,
		scores:  map[int]float64{},
		refs:    map[int]int{},
		evicted: map[int]bool{},
	}
}

// taskIssued pins parentID (if any) until taskDone.
func (g *candidateGC) taskIssued(parentID int) {
	if g == nil || parentID < 0 {
		return
	}
	g.refs[parentID]++
}

// taskDone releases one pin on parentID.
func (g *candidateGC) taskDone(parentID int) {
	if g == nil || parentID < 0 {
		return
	}
	if g.refs[parentID]--; g.refs[parentID] <= 0 {
		delete(g.refs, parentID)
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

// sweep deletes every eligible checkpoint. Deletion is best effort: an id
// whose checkpoint was already dropped (e.g. a resumed run that skipped a
// collected manifest) is simply forgotten.
func (g *candidateGC) sweep() {
	if g == nil || len(g.evicted) == 0 {
		return
	}
	top := g.topK()
	for id := range g.evicted {
		if g.refs[id] > 0 || top[id] {
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
