// Package parallel provides the process-wide worker pool that the compute
// kernels (internal/tensor, internal/nn) shard batched work across, and the
// one rule that decides whether a kernel call is worth sharding at all.
//
// For splits a range into at most Workers contiguous chunks and runs them on
// a fixed set of long-lived worker goroutines — no per-call goroutine spawn,
// no per-element channel traffic. What is measured (DESIGN.md §9.5, on the
// 2-vCPU reference box):
//
//   - A chunk handed to a parked worker starts late by the time the other
//     core takes to wake, about a hundred microseconds there and not the
//     ~1 µs of a hot channel send: a two-way split loses to the inline loop
//     below 0.25–0.4 ms of total work and is worth 1.3–1.8× from 1 ms up.
//     MinChunk therefore keeps every call whose halves would each be under
//     the grain whole on the caller. In a cifar10/mnist search that is nearly
//     every call (conv GEMMs at 4–16 filters on small maps, pooling,
//     activations, BatchNorm, the loss, minibatch gathers); what still
//     splits is work of about half a millisecond and up — wide Dense layers,
//     batch ≥ 32 convolutions at 16+ filters, gathers of a whole split.
//   - Static range-splitting: a call over n elements produces Shards(n,
//     minChunk) contiguous chunks, each at least minChunk elements, decided
//     up front. ForShard exposes the chunk index so callers can keep
//     per-shard scratch (e.g. weight-gradient partials) and reduce without
//     locks; ForShardN additionally pins the chunk count to a value the
//     caller precomputed with Shards, so scratch sizing and the range split
//     cannot disagree when SetWorkers runs concurrently.
//   - Deadlock-free handoff: chunks are offered to idle workers with a
//     non-blocking send; whatever no worker picks up immediately, the
//     calling goroutine runs itself. Nested For calls and many concurrent
//     callers (one per candidate evaluator) therefore degrade to inline
//     execution instead of deadlocking or oversubscribing.
//   - Panic propagation: the first panic raised inside any chunk is
//     re-raised on the calling goroutine after all chunks finish, so a
//     kernel bug surfaces exactly like it would in the serial loop.
//   - Serial fallback: when Workers() == 1, or the range is under the
//     grain, fn runs inline on the caller — the exact serial code path.
//     Sharding never changes arithmetic (every kernel fixes its
//     per-element order), so which calls split is a cost decision only.
//
// The pool size defaults to GOMAXPROCS and can be overridden by the
// SWTNAS_WORKERS environment variable or SetWorkers, letting deployments
// that run several candidate evaluations per node partition cores between
// them.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"swtnas/internal/obs"
)

// EnvWorkers is the environment variable that overrides the default pool
// size (a positive integer; invalid values are ignored).
const EnvWorkers = "SWTNAS_WORKERS"

// call tracks one For/ForShard invocation across its chunks.
type call struct {
	fn func(shard, lo, hi int)
	wg sync.WaitGroup

	mu       sync.Mutex
	panicVal any
	panicked bool
}

// run executes one chunk, capturing the first panic for re-raise.
func (c *call) run(shard, lo, hi int) {
	defer c.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			c.mu.Lock()
			if !c.panicked {
				c.panicked, c.panicVal = true, r
			}
			c.mu.Unlock()
		}
	}()
	c.fn(shard, lo, hi)
}

// task is one chunk handed to a pool worker.
type task struct {
	c             *call
	shard, lo, hi int
}

var (
	limit atomic.Int64 // current max shards per call

	poolMu  sync.Mutex   // serializes pool growth
	running atomic.Int64 // worker goroutines started so far; grows under poolMu
	tasks   chan task    // never closed; workers live for the process
)

// Pool telemetry (internal/obs, disabled by default). for.calls counts the
// calls that split and for.inline the calls kept whole on the caller while
// the worker limit allowed a split (one shard: under the grain, or a single
// item), so their sum is every For* call made at a limit above one and an
// idle pool can be told from an unasked one. The offloaded/inline shard
// split is the shard-imbalance signal: inline shards are chunks no worker
// accepted immediately — either every worker was busy (the pool is the
// bottleneck) or the caller raced the handoff. mInflight is the live number
// of splitting For calls, the pool's queue-depth analogue under the
// non-blocking handoff design.
var (
	mCalls     = obs.GetCounter("parallel.for.calls")
	mKept      = obs.GetCounter("parallel.for.inline")
	mOffloaded = obs.GetCounter("parallel.shards.offloaded")
	mInline    = obs.GetCounter("parallel.shards.inline")
	mWorkers   = obs.GetGauge("parallel.workers.running")
	mInflight  = obs.GetGauge("parallel.for.inflight")
)

func init() {
	limit.Store(int64(DefaultWorkers()))
	tasks = make(chan task)
}

// DefaultWorkers returns the pool size the process starts with: the value
// of SWTNAS_WORKERS when it is a positive integer, GOMAXPROCS otherwise.
func DefaultWorkers() int {
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Workers returns the current maximum number of chunks a single For call
// splits into (including the chunk the caller runs itself).
func Workers() int { return int(limit.Load()) }

// SetWorkers sets the maximum parallelism of subsequent For calls. n <= 0
// resets to DefaultWorkers. It returns the previous value so callers can
// restore it. In-flight calls are unaffected; worker goroutines are grown
// lazily and never torn down (an idle worker costs only a blocked receive).
func SetWorkers(n int) int {
	if n <= 0 {
		n = DefaultWorkers()
	}
	return int(limit.Swap(int64(n)))
}

// grain is the least work worth a shard of its own, in cost units: one unit
// is one multiply-add of the f32 GEMM tile kernels, 0.08–0.2 ns on the
// reference box, and every sharded kernel states its per-item cost in it
// (DESIGN.md §9.5 has the table). 1<<21 units is 0.2–0.4 ms of single-core
// work, the smallest power of two at which a two-way split is not slower
// than the inline loop there — in BenchmarkForBreakEven's arithmetic sweep
// and for the GEMM itself; re-read that sweep before changing it. A constant
// to production code: only _test.go files lower it, to make small shapes
// split.
var grain = 1 << 21

// MinChunk returns the smallest number of items one shard may hold, for a
// kernel whose items cost about cost units each: ceil(grain/cost), at least
// one. It is the minChunk every kernel passes to For, ForShard and Shards,
// so one constant decides which calls are too small to pay for a handoff.
func MinChunk(cost int) int {
	if cost < 1 {
		cost = 1
	}
	return (grain + cost - 1) / cost
}

// Shards returns the number of chunks For(n, minChunk, ·) splits into:
// min(Workers, floor(n/minChunk)) clamped to [1, n], or 0 when n <= 0.
func Shards(n, minChunk int) int {
	if n <= 0 {
		return 0
	}
	if minChunk < 1 {
		minChunk = 1
	}
	s := n / minChunk
	if s < 1 {
		s = 1
	}
	if w := Workers(); s > w {
		s = w
	}
	return s
}

// ensureWorkers grows the pool so that up to n-1 chunks can run off the
// calling goroutine.
func ensureWorkers(n int) {
	need := int64(n - 1)
	if need <= running.Load() { // fast path; running only grows
		return
	}
	poolMu.Lock()
	for running.Load() < need {
		go func() {
			for t := range tasks {
				t.c.run(t.shard, t.lo, t.hi)
			}
		}()
		running.Add(1)
	}
	mWorkers.Set(running.Load())
	poolMu.Unlock()
}

// For runs fn over the range [0, n) split into at most Workers contiguous
// chunks of at least minChunk elements each. fn(lo, hi) covers [lo, hi);
// every element is visited exactly once. For returns when all chunks have
// finished. If any chunk panics, the first panic value is re-raised on the
// calling goroutine (after the remaining chunks complete).
func For(n, minChunk int, fn func(lo, hi int)) {
	ForShard(n, minChunk, func(_, lo, hi int) { fn(lo, hi) })
}

// ForShard is For with the chunk index exposed: fn(shard, lo, hi) with
// shard in [0, Shards(n, minChunk)). Shard indices let callers accumulate
// into per-shard scratch buffers and reduce after ForShard returns — the
// lock-free pattern the backward kernels use for weight gradients.
//
// ForShard reads the worker limit exactly once. Callers that size scratch
// from a prior Shards call must instead pass that count to ForShardN, so a
// concurrent SetWorkers cannot make the split disagree with the scratch.
func ForShard(n, minChunk int, fn func(shard, lo, hi int)) {
	ForShardN(n, Shards(n, minChunk), fn)
}

// ForShardN is ForShard with the shard count fixed by the caller: the range
// [0, n) is split into exactly s contiguous chunks (clamped to [1, n]),
// regardless of the current worker limit. Callers compute s once via
// Shards, size per-shard scratch from it, and pass the same value here —
// shard indices are then guaranteed to stay below s even if SetWorkers runs
// concurrently. s <= 0 with n > 0 runs serially; n <= 0 is a no-op.
func ForShardN(n, s int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if s > n {
		s = n
	}
	if s <= 1 {
		if Workers() > 1 {
			mKept.Inc() // a no-op while the registry is disabled
		}
		fn(0, 0, n) // serial fast path: no pool, no wait group
		return
	}
	ensureWorkers(s)
	c := &call{fn: fn}
	c.wg.Add(s)
	chunk, rem := n/s, n%s
	// Offer chunks 1..s-1 to idle workers; shard 0 and anything no worker
	// accepts immediately run on the caller. The non-blocking send is what
	// makes nested and concurrent calls deadlock-free.
	type span struct{ shard, lo, hi int }
	local := make([]span, 0, s)
	lo := chunk
	if rem > 0 {
		lo++ // shard 0 takes the first remainder element
	}
	local = append(local, span{0, 0, lo})
	for i := 1; i < s; i++ {
		size := chunk
		if i < rem {
			size++
		}
		sp := span{i, lo, lo + size}
		lo += size
		select {
		case tasks <- task{c: c, shard: sp.shard, lo: sp.lo, hi: sp.hi}:
		default:
			local = append(local, sp)
		}
	}
	if obs.Enabled() {
		mCalls.Inc()
		mOffloaded.Add(int64(s - len(local)))
		mInline.Add(int64(len(local)))
		mWorkers.Set(running.Load())
		mInflight.Add(1)
		defer mInflight.Add(-1)
	}
	for _, sp := range local {
		c.run(sp.shard, sp.lo, sp.hi)
	}
	c.wg.Wait()
	if c.panicked {
		panic(c.panicVal)
	}
}
