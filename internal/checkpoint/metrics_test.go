package checkpoint

import (
	"fmt"
	"sync"
	"testing"

	"swtnas/internal/obs"
)

// withMetrics enables recording on the process registry for one test,
// restoring the previous state and zeroing the counters on exit so the
// package's other tests (which assume metrics are off) stay unaffected.
func withMetrics(t *testing.T) {
	t.Helper()
	prev := obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(prev)
		obs.Reset()
	})
	obs.Reset()
}

func metricModel(t *testing.T) *Model {
	t.Helper()
	return FromNetwork([]int{1, 2}, 0.5, sampleNet(31))
}

func TestStoreHitMissCounters(t *testing.T) {
	withMetrics(t)
	store := NewCASMemStore()
	m := metricModel(t)
	if _, err := store.Save("a", m); err != nil {
		t.Fatal(err)
	}
	before := obs.Take()
	if _, err := store.Load("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("missing"); err == nil {
		t.Fatal("missing id must fail")
	}
	d := obs.Take().Delta(before)
	if got := d.Counters["checkpoint.store.load.hits"]; got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := d.Counters["checkpoint.store.load.misses"]; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

func TestCASDiskStoreHitMissCounters(t *testing.T) {
	withMetrics(t)
	store, err := NewCASDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := metricModel(t)
	if _, err := store.Save("a", m); err != nil {
		t.Fatal(err)
	}
	before := obs.Take()
	if _, err := store.Load("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("missing"); err == nil {
		t.Fatal("missing id must fail")
	}
	d := obs.Take().Delta(before)
	if got := d.Counters["checkpoint.store.load.hits"]; got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := d.Counters["checkpoint.store.load.misses"]; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

// TestStoreCountersUnderConcurrentLoads exercises the hit/miss counters from
// many goroutines against one memory store while a reader snapshots — the race
// detector guards the counter paths, the final delta checks no increment is
// lost. Run with -race.
func TestStoreCountersUnderConcurrentLoads(t *testing.T) {
	withMetrics(t)
	store := NewCASMemStore()
	m := metricModel(t)
	if _, err := store.Save("a", m); err != nil {
		t.Fatal(err)
	}
	before := obs.Take()

	const (
		goroutines = 8
		perG       = 50
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					if _, err := store.Load("a"); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				} else {
					if _, err := store.Load(fmt.Sprintf("missing-%d", g)); err == nil {
						t.Errorf("goroutine %d: missing id must fail", g)
						return
					}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { // concurrent snapshot reader
		defer close(done)
		for i := 0; i < 20; i++ {
			obs.Take()
		}
	}()
	wg.Wait()
	<-done

	d := obs.Take().Delta(before)
	want := int64(goroutines * perG / 2)
	if got := d.Counters["checkpoint.store.load.hits"]; got != want {
		t.Errorf("hits = %d, want %d", got, want)
	}
	if got := d.Counters["checkpoint.store.load.misses"]; got != want {
		t.Errorf("misses = %d, want %d", got, want)
	}
	if got := d.Counters["checkpoint.decode.calls"]; got != want {
		t.Errorf("decode calls = %d, want %d (one per hit)", got, want)
	}
}

func TestCodecByteCountersMatchEncodedSize(t *testing.T) {
	withMetrics(t)
	m := metricModel(t)
	before := obs.Take()
	store := NewCASMemStore()
	n, err := store.Save("a", m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("a"); err != nil {
		t.Fatal(err)
	}
	d := obs.Take().Delta(before)
	if got := d.Counters["checkpoint.encode.bytes"]; got != n {
		t.Errorf("encode bytes = %d, want %d", got, n)
	}
	if got := d.Counters["checkpoint.decode.bytes"]; got != n {
		t.Errorf("decode bytes = %d, want %d", got, n)
	}
	if got := d.Counters["checkpoint.store.save.bytes"]; got != n {
		t.Errorf("store save bytes = %d, want %d", got, n)
	}
}

// TestSaveSizeHistogramCountsEachSaveOnce: checkpoint.store.save.size is the
// distribution sim.Calibrate fits its checkpoint-bytes sampler from, so it
// must hold exactly one observation per Save or SaveEncoded, on both
// backends — and moving a stream between stores re-encodes nothing.
func TestSaveSizeHistogramCountsEachSaveOnce(t *testing.T) {
	withMetrics(t)
	m := metricModel(t)
	mem := NewCASMemStore()
	disk, err := NewCASDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Take()
	saves := 0
	for i := 0; i < 3; i++ {
		if _, err := mem.Save(fmt.Sprintf("m%d", i), m); err != nil {
			t.Fatal(err)
		}
		stream, err := mem.LoadEncoded(fmt.Sprintf("m%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.SaveEncoded(fmt.Sprintf("b%d", i), stream); err != nil {
			t.Fatal(err)
		}
		if err := disk.SaveEncoded(fmt.Sprintf("d%d", i), stream); err != nil {
			t.Fatal(err)
		}
		if again, err := mem.LoadEncoded(fmt.Sprintf("b%d", i)); err != nil || &again[0] != &stream[0] {
			t.Fatalf("the memory backend copied a stream it was handed (err %v)", err)
		}
		saves += 3
	}
	d := obs.Take().Delta(before)
	if got := d.Histograms["checkpoint.store.save.size"].Count; got != int64(saves) {
		t.Errorf("save.size observations = %d, want %d (one per Save/SaveEncoded)", got, saves)
	}
	if enc, dec := d.Counters["checkpoint.encode.calls"], d.Counters["checkpoint.decode.calls"]; enc != 3 || dec != 0 {
		t.Errorf("%d encodes and %d decodes for 3 Saves and 6 SaveEncodeds, want 3 and 0", enc, dec)
	}
	if got := d.Counters["checkpoint.cas.blobs.stored"]; got != 7 {
		t.Errorf("cas.blobs.stored = %d, want 7: one per memory save, one for the three identical disk saves", got)
	}
}
