package nas

import (
	"slices"
	"testing"

	"swtnas/internal/checkpoint"
)

// TestGCKeepsUncommittedTasksProviders: a sweep deletes an evicted candidate
// outside the top-K unless a task still open names it as provider; once no
// open task does, the next sweep deletes it. A
// cancelled task's provider is kept by Run, which sweeps no more after a
// cancellation (TestGCResumeAfterCancelKeepsProvider).
func TestGCKeepsUncommittedTasksProviders(t *testing.T) {
	store := checkpoint.NewCASMemStore()
	gc := newCandidateGC(store, 1)
	for id, score := range []float64{0.1, 0.2, 0.9} {
		m := &checkpoint.Model{Arch: []int{id}, Score: score, Groups: []checkpoint.Group{{
			Layer: "d", Signature: []int{2},
			Tensors: []checkpoint.Tensor{{Name: "d/W", Shape: []int{2}, Data: []float64{float64(id), 1}}},
		}}}
		if _, err := store.Save(CandidateID(id), m); err != nil {
			t.Fatal(err)
		}
		gc.completed(id, score)
	}
	gc.evict(0)
	gc.evict(1)
	stored := func(want ...int) {
		t.Helper()
		got, err := store.List()
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, id := range want {
			ids = append(ids, CandidateID(id))
		}
		if !slices.Equal(got, ids) {
			t.Fatalf("stored %v, want %v", got, ids)
		}
	}
	gc.sweep(map[int]Task{3: {ID: 3, ParentID: 0}, 4: {ID: 4, ParentID: -1}})
	stored(0, 2)
	gc.sweep(map[int]Task{4: {ID: 4, ParentID: -1}})
	stored(2)
}
