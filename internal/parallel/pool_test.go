package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swtnas/internal/obs"
)

// withWorkers runs f with the pool limit set to n, restoring it after.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	f()
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	withWorkers(t, 8, func() {
		for _, n := range []int{1, 7, 8, 63, 64, 100, 1001} {
			counts := make([]int32, n)
			For(n, 3, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d: element %d visited %d times", n, i, c)
				}
			}
		}
	})
}

func TestForEdgeCases(t *testing.T) {
	withWorkers(t, 4, func() {
		// n = 0 and n < 0: fn must never run.
		For(0, 1, func(lo, hi int) { t.Error("fn called for n=0") })
		For(-5, 1, func(lo, hi int) { t.Error("fn called for n<0") })

		// n < minChunk: one inline call covering the whole range.
		calls := 0
		For(5, 10, func(lo, hi int) {
			calls++
			if lo != 0 || hi != 5 {
				t.Errorf("small range split: [%d,%d)", lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("small range ran %d chunks, want 1", calls)
		}

		// minChunk <= 0 is treated as 1.
		visited := make([]int32, 9)
		For(9, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visited[i], 1)
			}
		})
		for i, c := range visited {
			if c != 1 {
				t.Fatalf("minChunk=0: element %d visited %d times", i, c)
			}
		}
	})
}

func TestShards(t *testing.T) {
	withWorkers(t, 4, func() {
		cases := []struct{ n, minChunk, want int }{
			{0, 1, 0},
			{-1, 1, 0},
			{1, 1, 1},
			{3, 1, 3},
			{4, 1, 4},
			{100, 1, 4},   // capped by workers
			{7, 4, 1},     // floor(7/4) = 1
			{8, 4, 2},     // exactly two minimum chunks
			{100, 30, 3},  // floor(100/30) = 3
			{100, 200, 1}, // n < minChunk
		}
		for _, c := range cases {
			if got := Shards(c.n, c.minChunk); got != c.want {
				t.Errorf("Shards(%d, %d) = %d, want %d", c.n, c.minChunk, got, c.want)
			}
		}
	})
}

// TestMinChunk pins the one split rule: a shard holds at least grain units
// of work, whatever one item costs.
func TestMinChunk(t *testing.T) {
	for _, c := range []struct{ cost, want int }{
		{-3, grain}, {0, grain}, {1, grain},
		{3, (grain + 2) / 3}, // rounds up: a shard is never under the grain
		{grain / 2, 2}, {grain/2 + 1, 2}, {grain, 1}, {grain + 1, 1}, {1 << 40, 1},
	} {
		if got := MinChunk(c.cost); got != c.want {
			t.Errorf("MinChunk(%d) = %d, want %d", c.cost, got, c.want)
		}
	}
	withWorkers(t, 2, func() {
		// Two shards' worth of work splits; one item short of it does not.
		const cost = 1 << 10
		n := 2 * grain / cost
		if got := Shards(n, MinChunk(cost)); got != 2 {
			t.Errorf("Shards of %d items of cost %d = %d, want 2", n, cost, got)
		}
		if got := Shards(n-1, MinChunk(cost)); got != 1 {
			t.Errorf("Shards of %d items of cost %d = %d, want 1", n-1, cost, got)
		}
	})
}

// TestCallCountersAccountForEveryCall pins the pool's conservation law: at
// a worker limit above one every For* call over a non-empty range is counted
// once, as split (parallel.for.calls) or as kept whole on the caller
// (parallel.for.inline); at a limit of one the pool counts nothing, because
// nothing was asked of it.
func TestCallCountersAccountForEveryCall(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	count := func() (split, kept int64) {
		split, kept = mCalls.Value(), mKept.Value()
		nop := func(lo, hi int) {}
		For(2*grain, MinChunk(1), nop)   // two shards' worth: splits
		For(2*grain-1, MinChunk(1), nop) // under it: kept whole
		For(1, 1, nop)                   // a single item cannot split
		ForShardN(8, 1, func(_, lo, hi int) {})
		For(0, 1, nop) // empty: not a call
		return mCalls.Value() - split, mKept.Value() - kept
	}
	withWorkers(t, 2, func() {
		if split, kept := count(); split != 1 || kept != 3 {
			t.Errorf("workers=2: %d split + %d kept, want 1 + 3", split, kept)
		}
	})
	withWorkers(t, 1, func() {
		if split, kept := count(); split != 0 || kept != 0 {
			t.Errorf("workers=1: %d split + %d kept, want none counted", split, kept)
		}
	})
}

func TestForShardIndicesAreDense(t *testing.T) {
	withWorkers(t, 5, func() {
		n := 100
		s := Shards(n, 1)
		seen := make([]int32, s)
		ForShard(n, 1, func(shard, lo, hi int) {
			if shard < 0 || shard >= s {
				t.Errorf("shard %d out of [0,%d)", shard, s)
				return
			}
			atomic.AddInt32(&seen[shard], 1)
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("shard %d ran %d times, want 1", i, c)
			}
		}
	})
}

// TestForShardUnevenSplit checks that n not divisible by the shard count
// still covers the range with shard sizes differing by at most one.
func TestForShardUnevenSplit(t *testing.T) {
	withWorkers(t, 4, func() {
		n := 10 // 4 shards: 3+3+2+2
		var mu sync.Mutex
		sizes := map[int]int{}
		covered := make([]int32, n)
		ForShard(n, 1, func(shard, lo, hi int) {
			mu.Lock()
			sizes[shard] = hi - lo
			mu.Unlock()
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("element %d visited %d times", i, c)
			}
		}
		for shard, size := range sizes {
			if size != 2 && size != 3 {
				t.Errorf("shard %d has size %d, want 2 or 3", shard, size)
			}
		}
	})
}

func TestPanicPropagation(t *testing.T) {
	withWorkers(t, 4, func() {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("worker panic not propagated")
				}
				if s, ok := r.(string); !ok || s != "kernel bug" {
					t.Fatalf("propagated %v, want \"kernel bug\"", r)
				}
			}()
			For(100, 1, func(lo, hi int) {
				if lo <= 42 && 42 < hi {
					panic("kernel bug")
				}
			})
		}()

		// The pool must stay usable after a panic.
		total := int64(0)
		For(100, 1, func(lo, hi int) { atomic.AddInt64(&total, int64(hi-lo)) })
		if total != 100 {
			t.Fatalf("pool broken after panic: covered %d of 100", total)
		}
	})
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(0) // reset to default
	if got, want := Workers(), DefaultWorkers(); got != want {
		t.Fatalf("Workers() = %d after reset, want %d", got, want)
	}
	SetWorkers(3)
}

// TestConcurrentCallers drives many simultaneous For calls — the
// one-pool-many-evaluators shape of a parallel NAS run — under the race
// detector.
func TestConcurrentCallers(t *testing.T) {
	withWorkers(t, 4, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 50; iter++ {
					sum := int64(0)
					For(257, 2, func(lo, hi int) { atomic.AddInt64(&sum, int64(hi-lo)) })
					if sum != 257 {
						t.Errorf("covered %d of 257", sum)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestNestedFor checks that a chunk body issuing its own For call cannot
// deadlock (the handoff is non-blocking; unclaimed work runs inline).
func TestNestedFor(t *testing.T) {
	withWorkers(t, 4, func() {
		total := int64(0)
		For(16, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				For(16, 1, func(ilo, ihi int) { atomic.AddInt64(&total, int64(ihi-ilo)) })
			}
		})
		if total != 16*16 {
			t.Fatalf("nested coverage = %d, want %d", total, 16*16)
		}
	})
}

// TestForShardNHonorsCallerCount checks that ForShardN splits into exactly
// the shard count the caller computed, even after SetWorkers raises the
// limit in between — the TOCTOU that would overflow per-shard scratch if
// the split re-read the worker limit.
func TestForShardNHonorsCallerCount(t *testing.T) {
	withWorkers(t, 2, func() {
		n := 100
		s := Shards(n, 1) // 2
		SetWorkers(16)    // concurrent SetWorkers between sizing and split
		scratch := make([]int64, s)
		maxShard := int32(-1)
		ForShardN(n, s, func(shard, lo, hi int) {
			if shard >= s {
				t.Errorf("shard %d >= caller count %d", shard, s)
				return
			}
			for m := atomic.LoadInt32(&maxShard); shard > int(m); m = atomic.LoadInt32(&maxShard) {
				if atomic.CompareAndSwapInt32(&maxShard, m, int32(shard)) {
					break
				}
			}
			atomic.AddInt64(&scratch[shard], int64(hi-lo))
		})
		total := int64(0)
		for _, v := range scratch {
			total += v
		}
		if total != int64(n) {
			t.Fatalf("covered %d of %d", total, n)
		}
		if int(maxShard) != s-1 {
			t.Fatalf("max shard %d, want %d", maxShard, s-1)
		}
	})
}

func TestForShardNEdgeCases(t *testing.T) {
	withWorkers(t, 4, func() {
		// n <= 0: fn must never run.
		ForShardN(0, 4, func(shard, lo, hi int) { t.Error("fn called for n=0") })
		ForShardN(-3, 4, func(shard, lo, hi int) { t.Error("fn called for n<0") })

		// s <= 0 with n > 0 runs serially.
		calls := 0
		ForShardN(5, 0, func(shard, lo, hi int) {
			calls++
			if shard != 0 || lo != 0 || hi != 5 {
				t.Errorf("s=0 split: shard %d [%d,%d)", shard, lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("s=0 ran %d chunks, want 1", calls)
		}

		// s > n clamps to n: every chunk has exactly one element.
		covered := make([]int32, 3)
		ForShardN(3, 10, func(shard, lo, hi int) {
			if hi-lo != 1 || shard >= 3 {
				t.Errorf("s>n split: shard %d [%d,%d)", shard, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("element %d visited %d times", i, c)
			}
		}
	})
}

// TestPerShardScratchReduction exercises the lock-free gradient-partial
// pattern the nn backward kernels rely on: each shard owns scratch, the
// caller reduces after ForShard returns.
func TestPerShardScratchReduction(t *testing.T) {
	withWorkers(t, 4, func() {
		n := 1000
		s := Shards(n, 1)
		scratch := make([]float64, s)
		ForShard(n, 1, func(shard, lo, hi int) {
			for i := lo; i < hi; i++ {
				scratch[shard] += float64(i)
			}
		})
		total := 0.0
		for _, v := range scratch {
			total += v
		}
		if want := float64(n*(n-1)) / 2; total != want {
			t.Fatalf("reduced %v, want %v", total, want)
		}
	})
}

// spin is the break-even sweep's work item: a dependent multiply-add chain,
// so an item costs the same on any core and touches no memory.
func spin(lo, hi int) float64 {
	x := 1.0
	for i := lo; i < hi; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

var spinSink [2]float64

// BenchmarkForBreakEven is the sweep the grain is set from: a fixed
// arithmetic loop sized to 10 µs–4 ms of single-core work, run inline
// (workers=1) and split two ways through the pool (workers=2; ForShardN pins
// the split, so the sweep does not depend on the grain it sizes). The
// smallest size at which workers=2 is not slower than workers=1, halved, is
// the per-shard break-even. Run it with -cpu 2 (or more): at GOMAXPROCS=1
// the second shard has no core to run on. Work is arithmetic only, so this is
// the floor; the *Parallel kernel benchmarks of the root package add the
// cache traffic of a real kernel whose data the other core has not seen.
func BenchmarkForBreakEven(b *testing.B) {
	// Calibrate items per microsecond on this box: the fastest of a few
	// runs, long enough to be out of the timer's noise.
	const probe = 1 << 20
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		spinSink[0] = spin(0, probe)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	perMicro := float64(probe) / (float64(best.Nanoseconds()) / 1e3)
	for _, us := range []int{10, 20, 50, 100, 200, 300, 500, 1000, 2000, 4000} {
		n := int(perMicro * float64(us))
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("work=%dus/workers=%d", us, w), func(b *testing.B) {
				defer SetWorkers(SetWorkers(w))
				for i := 0; i < b.N; i++ {
					ForShardN(n, w, func(shard, lo, hi int) { spinSink[shard] = spin(lo, hi) })
				}
			})
		}
	}
}
