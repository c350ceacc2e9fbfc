package checkpoint

import (
	"fmt"
	"sync"
	"testing"
)

// TestCASConcurrentSaveLoadRelease hammers the store from many goroutines:
// writers save checkpoints, half of them byte-identical to another writer's
// (the shared-object path), readers load whatever exists, and reapers delete
// — exercising naming, un-naming and object removal under the race detector
// (the race CI job runs this package). Invariant checked at the end: after
// every id is deleted, the store is empty and no object leaked.
func TestCASConcurrentSaveLoadRelease(t *testing.T) {
	casStores(t, func(t *testing.T, s *CASStore) {
		const (
			writers = 4
			perW    = 8
		)
		base := casModel(42, 3)

		var wg sync.WaitGroup
		ids := make(chan string, writers*perW)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perW; i++ {
					// Writers w and w^1 save the same models under their own
					// ids, so every object is named, and un-named, twice.
					m := mutate(base, (w+i)%3, int64(100*(w/2)+i))
					id := fmt.Sprintf("w%d-c%d", w, i)
					if _, err := s.Save(id, m); err != nil {
						t.Errorf("Save(%s): %v", id, err)
						return
					}
					ids <- id
				}
			}(w)
		}

		// Readers race saves: a load may miss (id not saved yet) but must
		// never return a corrupt model or panic.
		done := make(chan struct{})
		var rg sync.WaitGroup
		for r := 0; r < 3; r++ {
			rg.Add(1)
			go func(r int) {
				defer rg.Done()
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					id := fmt.Sprintf("w%d-c%d", i%writers, i%perW)
					if m, err := s.Load(id); err == nil {
						if len(m.Groups) != 3 {
							t.Errorf("Load(%s): corrupt model with %d groups", id, len(m.Groups))
							return
						}
					}
				}
			}(r)
		}

		// Reapers delete concurrently with ongoing saves and loads.
		var dg sync.WaitGroup
		for d := 0; d < 2; d++ {
			dg.Add(1)
			go func() {
				defer dg.Done()
				for id := range ids {
					if err := s.Delete(id); err != nil {
						t.Errorf("Delete(%s): %v", id, err)
						return
					}
				}
			}()
		}

		wg.Wait()
		close(ids)
		dg.Wait()
		close(done)
		rg.Wait()

		if st := s.Stats(); st.Manifests != 0 || st.BlobsLive != 0 {
			t.Fatalf("store leaked after full churn: %+v", st)
		}
		if s.disk != nil {
			if files := objectFiles(t, s.disk.dir); len(files) != 0 {
				t.Fatalf("object files left after full churn: %v", files)
			}
		}
	})
}

// TestCASConcurrentSameID has many goroutines overwriting one id while
// others load it — the overwrite path must drop the old object atomically so
// concurrent loads always observe some complete checkpoint.
func TestCASConcurrentSameID(t *testing.T) {
	casStores(t, func(t *testing.T, s *CASStore) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					m := casModel(int64(10*w+i), 2)
					if _, err := s.Save("hot", m); err != nil {
						t.Errorf("Save: %v", err)
						return
					}
					got, err := s.Load("hot")
					if err != nil {
						t.Errorf("Load: %v", err)
						return
					}
					if len(got.Groups) != 2 {
						t.Errorf("torn read: %d groups", len(got.Groups))
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if live := s.Stats().BlobsLive; live != 1 {
			t.Fatalf("BlobsLive = %d after overwrite churn, want 1 (one model)", live)
		}
	})
}
