package nas

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"

	"swtnas/internal/obs"
	"swtnas/internal/parallel"
)

// Shared-pool telemetry (internal/obs, disabled by default): task and
// search accounting across tenants, failures, and the current fair
// schedule. Per-tenant task counters are additionally labeled (obs.Labeled)
// so a multi-tenant server can attribute load.
var (
	mPoolSubmitted = obs.GetCounter("nas.pool.tasks.submitted")
	mPoolCompleted = obs.GetCounter("nas.pool.tasks.completed")
	mPoolFailed    = obs.GetCounter("nas.pool.tasks.failed")
	mPoolPanics    = obs.GetCounter("nas.pool.tasks.panics")
	mPoolRejected  = obs.GetCounter("nas.pool.rejected.quota")
	mPoolActive    = obs.GetGauge("nas.pool.searches.active")
	mPoolQueued    = obs.GetGauge("nas.pool.tasks.queued")
	mPoolKernel    = obs.GetGauge("nas.pool.kernel.workers")
)

// ErrQuotaExceeded rejects a Register that would exceed the pool's admission
// limits (MaxActive or MaxPerTenant). Submitters should retry after one of
// the tenant's searches finishes; a server maps it to HTTP 429.
var ErrQuotaExceeded = errors.New("nas: evaluator pool quota exceeded")

// EvalFunc evaluates one candidate; Evaluator.EvaluateCtx is the canonical
// implementation. Each search supplies its own (the app, matcher and store
// differ per search), so a shared pool executes closures, not a fixed
// evaluator.
type EvalFunc func(context.Context, Task) Result

// Executor abstracts where a search's candidate evaluations run: a
// PoolClient on a SharedPool — one Run owns privately (the default), or one
// whose evaluator slots are fairly divided between many concurrent searches
// — or a cluster.Coordinator binding that ships tasks to TCP workers. Submit
// must not block the scheduler: the result is delivered to out (whose
// capacity covers every in-flight task) exactly once, possibly after Run has
// returned. An executor that retries marks the result of a task whose budget
// is spent as Failed; one that does not (the pool) returns the error bare,
// which aborts the search. A diverged candidate comes back Failed from the
// Evaluator itself, on either executor.
type Executor interface {
	Submit(ctx context.Context, t Task, eval EvalFunc, out chan<- Result)
}

// PoolConfig sizes a SharedPool and sets its admission policy.
type PoolConfig struct {
	// Workers is the number of evaluator slots — candidate evaluations
	// running concurrently across all searches. Defaults to 1.
	Workers int
	// MaxActive caps concurrently registered searches; 0 is unlimited.
	MaxActive int
	// MaxPerTenant caps concurrently registered searches per tenant; 0 is
	// unlimited.
	MaxPerTenant int
}

// SharedPool is a fixed set of evaluator slots — the only place candidate
// evaluations run in-process. Each search registers a PoolClient; slots pick
// the next task by weighted round-robin across clients (smallest
// weight-normalized service so far wins), so a heavy search cannot starve a
// light one, and admission control bounds how many searches a tenant may run
// at once. It divides the cores among the evaluations on its slots
// (splitLocked). Run gives a search without an Executor a private pool of its
// own.
type SharedPool struct {
	cfg PoolConfig
	// cores is what the process-wide compute-kernel limit (internal/parallel)
	// divides among the running evaluations (splitLocked); 0 leaves the
	// limit alone.
	cores int

	mu      sync.Mutex
	cond    *sync.Cond
	clients []*PoolClient
	tenants map[string]int
	queued  int
	running int // evaluations on the slots
	closed  bool
	// kernelBefore is the limit the pool found; Close restores it.
	kernelBefore int
}

// NewSharedPool starts a pool with cfg.Workers evaluator slots.
func NewSharedPool(cfg PoolConfig) *SharedPool { return newSharedPool(cfg, kernelCores()) }

// kernelCores is what a pool divides: GOMAXPROCS, or 0 (leave the kernel
// limit alone) when the SWTNAS_WORKERS environment variable pins it.
func kernelCores() int {
	if os.Getenv(parallel.EnvWorkers) != "" {
		return 0
	}
	return runtime.GOMAXPROCS(0)
}

func newSharedPool(cfg PoolConfig, cores int) *SharedPool {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	p := &SharedPool{cfg: cfg, cores: cores, tenants: map[string]int{}, kernelBefore: parallel.Workers()}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool's evaluator-slot count.
func (p *SharedPool) Workers() int { return p.cfg.Workers }

// Close stops the pool's slots once their current evaluations finish, hands
// every still-queued task a context.Canceled result (a search still running
// on the pool drains and ends instead of waiting forever) and restores the
// kernel limit the pool found. Close is for process shutdown, not search
// teardown (searches close their own clients).
func (p *SharedPool) Close() {
	p.mu.Lock()
	p.closed = true
	var queued []poolItem
	for _, c := range p.clients {
		queued = append(queued, c.queue...)
		c.queue = nil
	}
	p.queued = 0
	mPoolQueued.Set(0)
	if p.cores > 0 {
		parallel.SetWorkers(p.kernelBefore)
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	for _, it := range queued {
		it.out <- errResult(it.task, context.Canceled)
	}
}

// ClientConfig identifies one search to the pool.
type ClientConfig struct {
	// Tenant is the quota-accounting identity ("" is a tenant like any
	// other).
	Tenant string
	// Weight is the search's share of the pool relative to other clients
	// (minimum 1): a weight-2 client is served twice as often as a
	// weight-1 client under contention.
	Weight int
}

// PoolClient is one search's handle on a SharedPool; it implements Executor.
type PoolClient struct {
	pool *SharedPool
	cfg  ClientConfig

	// Guarded by pool.mu.
	served float64 // weight-normalized tasks served (WRR virtual time)
	queue  []poolItem
	closed bool
}

type poolItem struct {
	ctx  context.Context
	task Task
	eval EvalFunc
	out  chan<- Result
}

// Register admits a search to the pool, enforcing the per-tenant and
// pool-wide quotas (ErrQuotaExceeded). Close the client when the search
// ends.
func (p *SharedPool) Register(cfg ClientConfig) (*PoolClient, error) {
	if cfg.Weight < 1 {
		cfg.Weight = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("nas: evaluator pool is closed")
	}
	if p.cfg.MaxActive > 0 && len(p.clients) >= p.cfg.MaxActive {
		mPoolRejected.Inc()
		return nil, fmt.Errorf("%w: %d searches active (max %d)", ErrQuotaExceeded, len(p.clients), p.cfg.MaxActive)
	}
	if p.cfg.MaxPerTenant > 0 && p.tenants[cfg.Tenant] >= p.cfg.MaxPerTenant {
		mPoolRejected.Inc()
		return nil, fmt.Errorf("%w: tenant %q has %d searches active (max %d)", ErrQuotaExceeded, cfg.Tenant, p.tenants[cfg.Tenant], p.cfg.MaxPerTenant)
	}
	c := &PoolClient{pool: p, cfg: cfg}
	// A newcomer starts at the lowest virtual time already in play: it gets
	// its fair share from now on without a catch-up burst that would starve
	// the searches already running.
	for i, other := range p.clients {
		if i == 0 || other.served < c.served {
			c.served = other.served
		}
	}
	p.clients = append(p.clients, c)
	p.tenants[cfg.Tenant]++
	mPoolActive.Set(int64(len(p.clients)))
	return c, nil
}

// Submit schedules one candidate evaluation; it never blocks (the queue is
// unbounded, fairness is applied when slots pick work). Part of Executor.
func (c *PoolClient) Submit(ctx context.Context, t Task, eval EvalFunc, out chan<- Result) {
	p := c.pool
	p.mu.Lock()
	if c.closed || p.closed {
		p.mu.Unlock()
		out <- errResult(t, context.Canceled)
		return
	}
	c.queue = append(c.queue, poolItem{ctx: ctx, task: t, eval: eval, out: out})
	p.queued++
	mPoolQueued.Set(int64(p.queued))
	p.mu.Unlock()
	mPoolSubmitted.Inc()
	if obs.Enabled() {
		obs.GetCounter(obs.Labeled("nas.pool.tasks.submitted", "tenant", c.cfg.Tenant)).Inc()
	}
	p.cond.Signal()
}

// Close deregisters the search: queued tasks are dropped (their results are
// no longer consumed) and the tenant's quota slot frees. An evaluation
// already running on a slot finishes and its result is discarded by the
// departed scheduler's buffered channel.
func (c *PoolClient) Close() {
	p := c.pool
	p.mu.Lock()
	if c.closed {
		p.mu.Unlock()
		return
	}
	c.closed = true
	p.queued -= len(c.queue)
	c.queue = nil
	mPoolQueued.Set(int64(p.queued))
	for i, other := range p.clients {
		if other == c {
			p.clients = append(p.clients[:i], p.clients[i+1:]...)
			break
		}
	}
	p.tenants[c.cfg.Tenant]--
	if p.tenants[c.cfg.Tenant] <= 0 {
		delete(p.tenants, c.cfg.Tenant)
	}
	mPoolActive.Set(int64(len(p.clients)))
	p.mu.Unlock()
	p.cond.Broadcast()
}

// nextLocked picks the client to serve: among clients with queued work, the
// one with the smallest weight-normalized service so far (deficit-style
// weighted round-robin; registration order breaks ties). Callers hold p.mu.
func (p *SharedPool) nextLocked() *PoolClient {
	var best *PoolClient
	for _, c := range p.clients {
		if len(c.queue) == 0 {
			continue
		}
		if best == nil || c.served < best.served {
			best = c
		}
	}
	return best
}

// worker is one evaluator slot: wait for the fair scheduler to hand it a
// task, run it with panic isolation, deliver the result.
func (p *SharedPool) worker() {
	for {
		p.mu.Lock()
		var c *PoolClient
		for {
			if p.closed {
				p.mu.Unlock()
				return
			}
			if c = p.nextLocked(); c != nil {
				break
			}
			p.cond.Wait()
		}
		it := c.queue[0]
		c.queue = c.queue[1:]
		p.queued--
		mPoolQueued.Set(int64(p.queued))
		c.served += 1 / float64(c.cfg.Weight)
		p.running++
		p.splitLocked()
		p.mu.Unlock()

		res := runIsolated(it)
		p.mu.Lock()
		p.running--
		p.splitLocked()
		p.mu.Unlock()
		// A Failed result (a diverged candidate) is an evaluation that ran to
		// its end, not a fault of the slot.
		if res.Err != nil && !res.Failed && !errors.Is(res.Err, context.Canceled) && !errors.Is(res.Err, context.DeadlineExceeded) {
			mPoolFailed.Inc()
		} else {
			mPoolCompleted.Inc()
			if obs.Enabled() {
				obs.GetCounter(obs.Labeled("nas.pool.tasks.completed", "tenant", c.cfg.Tenant)).Inc()
			}
		}
		it.out <- res
	}
}

// runIsolated executes one task, honoring its context and converting a
// panicking evaluation (a defect in one tenant's space or data) into an
// error result so the slot — and every other search, and the process —
// survives.
func runIsolated(it poolItem) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			mPoolPanics.Inc()
			res = errResult(it.task, fmt.Errorf("nas: evaluating candidate %d panicked: %v", it.task.ID, r))
		}
	}()
	if err := it.ctx.Err(); err != nil {
		return errResult(it.task, err)
	}
	return it.eval(it.ctx, it.task)
}

// splitLocked is the evaluator×kernel core split, the one rule for how
// in-process evaluations share the cores: the kernel limit becomes
// max(1, cores/running), so the evaluations on the slots partition the cores
// instead of oversubscribing them, and a lone one gets them all. A closed
// pool has restored the limit it found and writes nothing. Callers hold p.mu.
func (p *SharedPool) splitLocked() {
	if p.cores <= 0 || p.closed {
		return
	}
	kw := max(1, p.cores/max(1, p.running))
	parallel.SetWorkers(kw)
	mPoolKernel.Set(int64(kw))
}
