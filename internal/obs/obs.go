// Package obs is the process-wide observability substrate of the
// reproduction: an allocation-light metrics registry (atomic counters,
// gauges and fixed-bucket histograms with timers) with a JSON snapshot API
// and an optional net/http debug endpoint. Everything is standard library.
//
// The paper's headline claims are rates — time-to-accuracy (Fig 7),
// checkpoint transfer overhead (Fig 10), evaluator utilization — so the
// stack needs a runtime measurement layer, not just one-off benchmarks.
// Every hot path registers its metrics here: the worker pool
// (internal/parallel), the GEMM kernels (internal/tensor), the fit loop
// (internal/nn), the checkpoint codec and stores (internal/checkpoint),
// candidate evaluation (internal/nas) and the RPC workers
// (internal/cluster).
//
// Cost model: metrics are disabled by default, and every metric operation
// first loads one shared atomic bool — the disabled path is a load and a
// branch, no time.Now(), no allocation. Enabled, a counter add is one
// atomic add and a histogram observation is a handful of atomic ops.
// Instrumentation sits at call granularity (one Gemm call, one checkpoint
// encode, one candidate evaluation), never inside element loops.
//
// Usage pattern — register once in a package var, operate in the hot path:
//
//	var (
//		gemmCalls = obs.GetCounter("tensor.gemm.calls")
//		gemmTime  = obs.GetHistogram("tensor.gemm.seconds", obs.DurationBuckets)
//	)
//
//	func Gemm(...) {
//		t := gemmTime.Start()
//		defer t.Stop()
//		gemmCalls.Inc()
//		...
//	}
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Registry owns a namespace of metrics and one enabled flag shared by all
// of them. Metric handles are created once (GetCounter/GetGauge/
// GetHistogram) and remain valid for the registry's lifetime; all methods
// are safe for concurrent use.
type Registry struct {
	enabled atomic.Bool

	mu     sync.RWMutex
	kinds  map[string]string // name -> "counter" | "gauge" | "histogram"
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry creates an empty, disabled registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:  map[string]string{},
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// def is the process-wide default registry all package-level functions act
// on; the instrumented packages register their metrics here.
var def = NewRegistry()

// Enabled reports whether metrics in r are being recorded.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// SetEnabled turns recording on or off and returns the previous state.
// Metric values recorded while enabled are retained across a disable.
func (r *Registry) SetEnabled(on bool) bool { return r.enabled.Swap(on) }

// Enabled reports whether the default registry is recording.
func Enabled() bool { return def.Enabled() }

// SetEnabled flips the default registry; it returns the previous state.
func SetEnabled(on bool) bool { return def.SetEnabled(on) }

// checkKind panics when a metric name is re-registered as a different kind;
// the registry is flat, so a collision is a programming error worth failing
// loudly on. Callers hold r.mu.
func (r *Registry) checkKind(name, kind string) {
	if prev, ok := r.kinds[name]; ok && prev != kind {
		panic("obs: metric " + name + " already registered as " + prev + ", not " + kind)
	}
	r.kinds[name] = kind
}

// GetCounter returns the counter registered under name, creating it if
// needed. It panics if name is already a gauge or histogram.
func (r *Registry) GetCounter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, "counter")
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{on: &r.enabled}
		r.counts[name] = c
	}
	return c
}

// GetGauge returns the gauge registered under name, creating it if needed.
func (r *Registry) GetGauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{on: &r.enabled}
		r.gauges[name] = g
	}
	return g
}

// GetHistogram returns the histogram registered under name, creating it
// with the given ascending upper bounds if needed. On an existing name the
// original bounds win and bounds is ignored.
func (r *Registry) GetHistogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, "histogram")
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(&r.enabled, bounds)
		r.hists[name] = h
	}
	return h
}

// GetCounter returns (creating if needed) a counter in the default registry.
func GetCounter(name string) *Counter { return def.GetCounter(name) }

// GetGauge returns (creating if needed) a gauge in the default registry.
func GetGauge(name string) *Gauge { return def.GetGauge(name) }

// GetHistogram returns (creating if needed) a histogram in the default
// registry.
func GetHistogram(name string, bounds []float64) *Histogram {
	return def.GetHistogram(name, bounds)
}

// Reset zeroes every metric in the registry, keeping registrations and the
// enabled state. Tests and per-run reports use it to start from zero.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counts {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Reset zeroes the default registry.
func Reset() { def.Reset() }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Add increments the counter by n when the owning registry is enabled.
func (c *Counter) Add(n int64) {
	if c.on.Load() {
		c.v.Add(n)
	}
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (pool sizes, queue depths).
type Gauge struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Set stores v when the owning registry is enabled.
func (g *Gauge) Set(v int64) {
	if g.on.Load() {
		g.v.Store(v)
	}
}

// Add moves the gauge by n (negative to decrease) when enabled.
func (g *Gauge) Add(n int64) {
	if g.on.Load() {
		g.v.Add(n)
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets defined by ascending
// upper bounds (values above the last bound land in an overflow bucket) and
// tracks count, sum, min and max. All updates are atomic; a concurrent
// Snapshot sees a consistent-enough view (bucket counts may trail the total
// by in-flight observations, never by more).
type Histogram struct {
	on      *atomic.Bool
	bounds  []float64 // immutable after creation
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits
	min     atomic.Uint64 // float64 bits; +Inf when empty
	max     atomic.Uint64 // float64 bits; -Inf when empty
}

func newHistogram(on *atomic.Bool, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		on:      on,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
}

// bucketOf returns the index of the bucket v falls into (binary search over
// the bounds; typically <= 4 probes for the preset bucket sets).
func (h *Histogram) bucketOf(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records one value when the owning registry is enabled.
func (h *Histogram) Observe(v float64) {
	if !h.on.Load() {
		return
	}
	h.buckets[h.bucketOf(v)].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
	casFloat(&h.min, v, func(cur float64) bool { return v < cur })
	casFloat(&h.max, v, func(cur float64) bool { return v > cur })
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// addFloat atomically adds v to the float64 stored as bits in a.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// casFloat replaces the float64 stored in a with v while better(current).
func casFloat(a *atomic.Uint64, v float64, better func(cur float64) bool) {
	for {
		old := a.Load()
		if !better(math.Float64frombits(old)) {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Timer is an in-flight duration measurement returned by Histogram.Start.
// The zero Timer (returned while the registry is disabled) makes Stop a
// no-op, so instrumented code needs no enabled-checks of its own.
type Timer struct {
	h  *Histogram
	t0 time.Time
}

// Start begins timing when the owning registry is enabled; otherwise it
// returns a no-op Timer without calling time.Now.
func (h *Histogram) Start() Timer {
	if !h.on.Load() {
		return Timer{}
	}
	return Timer{h: h, t0: time.Now()}
}

// Stop records the elapsed time since Start in seconds and returns it.
// On a no-op Timer it does nothing and returns zero.
func (t Timer) Stop() time.Duration {
	if t.h == nil {
		return 0
	}
	d := time.Since(t.t0)
	t.h.ObserveDuration(d)
	return d
}

// DurationBuckets are the preset histogram bounds for timers, in seconds:
// 1µs to 100s, roughly geometric (1-3-10 per decade). They cover a Gemm
// micro-call up to a multi-minute candidate training.
var DurationBuckets = []float64{
	1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4,
	1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1,
	1, 3, 10, 30, 100,
}

// SizeBuckets are the preset histogram bounds for byte sizes: 256B to 64MB
// in powers of four, matching checkpoint sizes from tiny NT3 candidates to
// full CIFAR-10 networks.
var SizeBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
	256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20,
}

// ScoreErrorBuckets are the preset histogram bounds for absolute errors of
// unit-scale objective scores (accuracy, R²): 0.001 to 1, roughly geometric.
// The surrogate pre-filter's prediction-error series uses them.
var ScoreErrorBuckets = []float64{
	1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1,
}
