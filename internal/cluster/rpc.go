// Package cluster is the multi-node executor of the one search loop
// (nas.Run): TCP-distributed evaluators over net/rpc, the stand-in for
// DeepHyper's multi-node Ray/MPI/Balsam backends. A Coordinator queues
// tasks for polling Workers with fault-tolerant coordination (heartbeats,
// quarantine, requeue, speculative re-execution); Coordinator.Bind makes it
// the nas.Executor of one search, and each Worker runs nas.Evaluator behind
// the RPC envelope, returning the evaluator's trace.Record whole. The paper's
// scalability study (Fig 10) runs on the simulator in internal/sim instead,
// since this host has no GPUs.
package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/rpc"
	"slices"
	"sync"
	"time"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/nas"
	"swtnas/internal/obs"
	"swtnas/internal/stats"
	"swtnas/internal/tensor"
	"swtnas/internal/trace"
)

// Cluster telemetry (internal/obs, disabled by default): per-RPC round-trip
// latency as seen by workers (NextTask's includes its queue-blocking time,
// the worker-idle signal), call/error counts, dial retries, each shipped
// candidate's execution time, and the coordinator's fault-tolerance
// decisions. Coordinator-side traffic is also labeled per worker id
// (obs.Labeled), so requeue/quarantine decisions are attributable.
var (
	mRPCSeconds  = obs.GetHistogram("cluster.rpc.seconds", obs.DurationBuckets)
	mRPCCalls    = obs.GetCounter("cluster.rpc.calls")
	mRPCErrors   = obs.GetCounter("cluster.rpc.errors")
	mRPCRetries  = obs.GetCounter("cluster.rpc.retries")
	mExecSeconds = obs.GetHistogram("cluster.exec.seconds", obs.DurationBuckets)

	mTasksRequeued    = obs.GetCounter("cluster.tasks.requeued")
	mTasksFailed      = obs.GetCounter("cluster.tasks.failed")
	mResultsDuplicate = obs.GetCounter("cluster.results.duplicate")
	mQuarantined      = obs.GetCounter("cluster.workers.quarantined")
	mReadmitted       = obs.GetCounter("cluster.workers.readmitted")
	mInflightGauge    = obs.GetGauge("cluster.tasks.inflight")
	mHeartbeats       = obs.GetCounter("cluster.heartbeats")
	mSpeculated       = obs.GetCounter("cluster.tasks.speculated")
	mSpeculationWon   = obs.GetCounter("cluster.speculation.won")
)

// Worker.Run's dial schedule, and the speculation window's length.
const (
	dialAttempts  = 5
	dialDelay     = 100 * time.Millisecond
	latencyWindow = 128
)

// call wraps client.Call with round-trip telemetry.
func call(client *rpc.Client, method string, args, reply any) error {
	t := mRPCSeconds.Start()
	err := client.Call(method, args, reply)
	mRPCCalls.Inc()
	if err != nil {
		mRPCErrors.Inc()
		return err
	}
	t.Stop()
	return nil
}

// RPCTask ships one candidate evaluation to a remote worker. Tasks are
// self-contained: the worker regenerates the (deterministic) dataset from
// App/DataSeed and receives the provider checkpoint inline, so workers need
// no shared file system — the role the paper's parallel FS plays is taken by
// the coordinator's store.
type RPCTask struct {
	// Shutdown tells the worker to exit its task loop.
	Shutdown bool
	// ID is the candidate number.
	ID int
	// App names the application; DataSeed / TrainN / ValN reproduce its
	// dataset on the worker.
	App          string
	DataSeed     int64
	TrainN, ValN int
	Arch         []int
	Seed         int64
	Matcher      string // "", "LP", "LCS"
	Parent       []byte // encoded provider checkpoint, nil for scratch
	// DType selects the worker-side training element type ("", "f64" or
	// "f32", the tensor.ParseDType spellings), with nas.Evaluator.DType's
	// meaning; the returned checkpoint is dtype-tagged.
	DType string
}

// RPCResult returns one evaluation to the coordinator: the candidate's trace
// record whole, as the worker's nas.Evaluator filled it (shape sequence and
// evaluation latency included), beside the trained bytes. Record.ID names the
// task whatever the outcome. Record.Failed marks a terminal failure: emitted
// by the coordinator after the task exhausted its retry budget, or by the
// worker for a candidate that diverged (nas.Evaluator's verdict, which a
// retry would repeat; it ships no checkpoint). Plain worker errors (Err set,
// Failed false) are retried internally and never reach the search.
type RPCResult struct {
	trace.Record
	WorkerID   string
	Checkpoint []byte
	Err        string
	// Attempts counts the executions the task consumed (retries included).
	Attempts int
}

// FaultConfig tunes the coordinator's failure detection and retry policy.
// The zero value selects the defaults noted on each field; tests shrink the
// timings to milliseconds.
type FaultConfig struct {
	// HeartbeatTimeout quarantines a worker silent (no NextTask, Submit or
	// Heartbeat) for longer than this; its in-flight tasks requeue, and it
	// is re-admitted when it heartbeats again. Default 15s.
	HeartbeatTimeout time.Duration
	// TaskDeadline requeues a task that has been running on one worker for
	// longer than this (stall detection, independent of heartbeats).
	// 0 disables per-task deadlines.
	TaskDeadline time.Duration
	// MaxAttempts bounds the executions one task may consume before the
	// coordinator surfaces it as a Failed result instead of retrying.
	// Default 3.
	MaxAttempts int
	// RetryBackoff delays a requeued task's re-dispatch, doubling per
	// consumed attempt. Default 100ms.
	RetryBackoff time.Duration
	// MonitorInterval is the failure-detector scan period. Default 250ms.
	MonitorInterval time.Duration
	// SpeculativeQuantile enables speculative re-execution: once enough
	// results are in, a task whose elapsed runtime exceeds
	// SpeculationFactor times this quantile of recently completed
	// evaluation latencies gets a backup attempt on the next free worker —
	// first result wins, the loser's is dropped as a duplicate. 0 disables
	// speculation (the default); paper-style straggler mitigation uses 0.9.
	SpeculativeQuantile float64
	// SpeculationFactor scales the quantile into the straggler threshold.
	// Default 1.5.
	SpeculationFactor float64
	// SpeculationMinSamples is how many completed evaluations the latency
	// window needs before speculation engages. Default 8.
	SpeculationMinSamples int
	// OnEvent, when set, observes every fault-tolerance decision the
	// coordinator takes as a nas.FaultEvent. Events are delivered outside
	// the coordinator's lock, in decision order, from whichever goroutine
	// took the decision; the callback must be safe for concurrent use and
	// must not block (it runs on the RPC and failure-detector paths).
	OnEvent func(nas.FaultEvent)
}

func (f FaultConfig) withDefaults() FaultConfig {
	orDefault(&f.HeartbeatTimeout, 15*time.Second)
	orDefault(&f.MaxAttempts, 3)
	orDefault(&f.RetryBackoff, 100*time.Millisecond)
	orDefault(&f.MonitorInterval, 250*time.Millisecond)
	orDefault(&f.SpeculationFactor, 1.5)
	orDefault(&f.SpeculationMinSamples, 8)
	return f
}

// orDefault replaces a non-positive *v with d.
func orDefault[T int | float64 | time.Duration](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

// attempt is the scheduling state of one unresolved task: queued (not
// dispatched before readyAt, its retry backoff) or running on worker since
// started. One attempt follows a task through every retry. A backup is a
// second copy racing a straggling original (speculative re-execution); it
// lives outside the retry budget and resolves the task through the original.
type attempt struct {
	task       RPCTask
	done       func(RPCResult) // receives the task's one terminal result
	n          int             // executions consumed, the running one included
	backup     bool
	speculated bool // original only: its one backup has been launched
	readyAt    time.Time
	worker     string
	started    time.Time
}

// workerState is the coordinator's liveness view of one worker.
type workerState struct {
	lastBeat    time.Time
	quarantined bool
}

// Coordinator is the scheduler-side RPC endpoint: workers poll NextTask,
// push Submit, and report liveness via Heartbeat. It is the stand-in for
// DeepHyper's Ray head node, hardened for worker preemption: tasks whose
// worker crashes or stalls are requeued (bounded attempts with backoff) and
// dead workers are quarantined until they heartbeat again.
type Coordinator struct {
	cfg FaultConfig

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*attempt       // waiting for a worker, in dispatch order
	open     map[int]*attempt // every unresolved task's original attempt
	inflight map[int]*attempt // originals running on a worker
	backups  map[int]*attempt // backups running on a worker
	workers  map[string]*workerState
	shutdown bool

	// latencies is a sliding window of the last latencyWindow completed
	// attempts' dispatch-to-result times, the base of the speculation
	// threshold.
	latencies []time.Duration

	monitorOnce sync.Once
	stopMonitor chan struct{}

	// pending buffers fault events recorded under mu; emitMu serializes
	// their delivery to cfg.OnEvent so observers see decision order even
	// when RPC goroutines and the failure detector flush concurrently.
	pending []nas.FaultEvent
	emitMu  sync.Mutex
}

// emitLocked queues a fault event for delivery; callers hold c.mu and must
// call flushEvents after unlocking.
func (c *Coordinator) emitLocked(ev nas.FaultEvent) {
	if c.cfg.OnEvent != nil {
		c.pending = append(c.pending, ev)
	}
}

// flushEvents delivers queued fault events outside c.mu, preserving the
// order the decisions were taken in.
func (c *Coordinator) flushEvents() {
	if c.cfg.OnEvent == nil {
		return
	}
	c.emitMu.Lock()
	defer c.emitMu.Unlock()
	c.mu.Lock()
	evs := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, ev := range evs {
		c.cfg.OnEvent(ev)
	}
}

// NewCoordinator creates a coordinator with the default fault policy.
func NewCoordinator() *Coordinator { return NewCoordinatorWith(FaultConfig{}) }

// NewCoordinatorWith creates a coordinator with an explicit fault policy.
func NewCoordinatorWith(cfg FaultConfig) *Coordinator {
	c := &Coordinator{
		cfg:         cfg.withDefaults(),
		open:        map[int]*attempt{},
		inflight:    map[int]*attempt{},
		backups:     map[int]*attempt{},
		workers:     map[string]*workerState{},
		stopMonitor: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// enqueue adds a task for the next free worker. Its one terminal result — a
// worker's successful submission, or a Failed result the coordinator
// synthesizes once the retry budget is spent; duplicate submissions are
// dropped — goes to done, called outside the coordinator's lock from
// whichever goroutine resolved the task. It starts the failure detector on
// first use.
func (c *Coordinator) enqueue(t RPCTask, done func(RPCResult)) {
	c.monitorOnce.Do(func() { go c.monitor() })
	a := &attempt{task: t, done: done}
	c.mu.Lock()
	c.open[t.ID] = a
	c.queue = append(c.queue, a)
	c.mu.Unlock()
	c.cond.Signal()
}

// Shutdown makes every pending and future NextTask return a shutdown task
// and stops the failure detector.
func (c *Coordinator) Shutdown() {
	c.monitorOnce.Do(func() { go c.monitor() }) // ensure stopMonitor has a consumer
	c.mu.Lock()
	if !c.shutdown {
		c.shutdown = true
		close(c.stopMonitor)
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// beatLocked records worker liveness, re-admitting it from quarantine.
// Callers hold c.mu.
func (c *Coordinator) beatLocked(workerID string) {
	ws := c.workers[workerID]
	if ws == nil {
		ws = &workerState{}
		c.workers[workerID] = ws
	}
	ws.lastBeat = time.Now()
	if ws.quarantined {
		ws.quarantined = false
		mReadmitted.Inc()
		obs.GetCounter(obs.Labeled("cluster.coord.readmitted", "worker", workerID)).Inc()
		c.emitLocked(nas.FaultEvent{Kind: nas.FaultReadmit, Worker: workerID, CandidateID: -1})
	}
}

// runningLocked returns the attempt worker is running for task id — its
// backup if it holds one, else the original — or nil if the attempt was
// reclaimed from it (queued again or running elsewhere). Callers hold c.mu.
func (c *Coordinator) runningLocked(id int, worker string) *attempt {
	for _, a := range []*attempt{c.backups[id], c.inflight[id]} {
		if a != nil && a.worker == worker {
			return a
		}
	}
	return nil
}

// resolveLocked forgets a task that reached its terminal result, whatever
// copies of it are queued or running. Callers hold c.mu.
func (c *Coordinator) resolveLocked(id int) {
	delete(c.open, id)
	delete(c.inflight, id)
	delete(c.backups, id)
	c.queue = slices.DeleteFunc(c.queue, func(a *attempt) bool { return a.task.ID == id })
}

// requeueLocked returns an original attempt that ended without a result to
// the schedule: a retry with backoff while attempts remain, a synthesized
// Failed result otherwise. It returns the delivery of that terminal result
// (nil for a retry); callers hold c.mu and must call it after unlocking.
func (c *Coordinator) requeueLocked(a *attempt, reason string) (deliver func()) {
	id := a.task.ID
	if a.n >= c.cfg.MaxAttempts {
		c.resolveLocked(id)
		mTasksFailed.Inc()
		c.emitLocked(nas.FaultEvent{Kind: nas.FaultFailed, CandidateID: id, Reason: reason, Attempt: a.n})
		res := RPCResult{Record: trace.Record{ID: id, Failed: true}, WorkerID: "coordinator", Err: reason, Attempts: a.n}
		return func() { a.done(res) }
	}
	delete(c.inflight, id)
	a.readyAt = time.Now().Add(c.cfg.RetryBackoff << (a.n - 1))
	c.queue = append(c.queue, a)
	mTasksRequeued.Inc()
	c.emitLocked(nas.FaultEvent{Kind: nas.FaultRequeue, CandidateID: id, Reason: reason, Attempt: a.n})
	return nil
}

// monitor is the failure detector: it quarantines silent workers (requeuing
// their in-flight tasks), enforces per-task deadlines, launches speculative
// backups, and wakes parked workers for requeued tasks whose backoff elapsed.
func (c *Coordinator) monitor() {
	ticker := time.NewTicker(c.cfg.MonitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopMonitor:
			return
		case <-ticker.C:
		}
		now := time.Now()
		var failed []func()
		reclaim := func(a *attempt, reason string) {
			if deliver := c.requeueLocked(a, reason); deliver != nil {
				failed = append(failed, deliver)
			}
		}
		c.mu.Lock()
		// Quarantine workers that stopped heartbeating and reclaim their
		// in-flight tasks.
		for id, ws := range c.workers {
			if ws.quarantined || now.Sub(ws.lastBeat) <= c.cfg.HeartbeatTimeout {
				continue
			}
			ws.quarantined = true
			mQuarantined.Inc()
			obs.GetCounter(obs.Labeled("cluster.coord.quarantined", "worker", id)).Inc()
			c.emitLocked(nas.FaultEvent{Kind: nas.FaultQuarantine, Worker: id, CandidateID: -1, Reason: "no heartbeat"})
			for _, a := range c.inflight {
				if a.worker == id {
					reclaim(a, fmt.Sprintf("worker %s presumed dead (no heartbeat)", id))
				}
			}
			// A quarantined worker's backup attempts are simply dropped:
			// the originals are still tracked, so nothing is lost.
			maps.DeleteFunc(c.backups, func(_ int, b *attempt) bool { return b.worker == id })
		}
		// Per-task deadline: a task stuck on one worker is requeued even if
		// the worker still heartbeats (stalled evaluation).
		if c.cfg.TaskDeadline > 0 {
			for _, a := range c.inflight {
				if now.Sub(a.started) > c.cfg.TaskDeadline {
					reclaim(a, fmt.Sprintf("task deadline %s exceeded on worker %s", c.cfg.TaskDeadline, a.worker))
				}
			}
		}
		// Speculative re-execution: once the latency window is warm, a task
		// running past the quantile threshold gets one backup attempt, queued
		// ahead of regular work for the next free worker (first result wins).
		if c.cfg.SpeculativeQuantile > 0 && len(c.latencies) >= c.cfg.SpeculationMinSamples {
			threshold := time.Duration(float64(stats.DurationQuantile(c.latencies, c.cfg.SpeculativeQuantile)) * c.cfg.SpeculationFactor)
			for id, a := range c.inflight {
				if threshold <= 0 || a.speculated || now.Sub(a.started) <= threshold {
					continue
				}
				a.speculated = true
				mSpeculated.Inc()
				c.queue = slices.Insert(c.queue, 0, &attempt{task: a.task, n: a.n, backup: true})
				c.emitLocked(nas.FaultEvent{
					Kind:        nas.FaultSpeculate,
					Worker:      a.worker,
					CandidateID: id,
					Reason:      fmt.Sprintf("runtime exceeded %s (q%.2f x %.1f of %d samples)", threshold.Round(time.Millisecond), c.cfg.SpeculativeQuantile, c.cfg.SpeculationFactor, len(c.latencies)),
					Attempt:     a.n,
				})
			}
		}
		mInflightGauge.Set(int64(len(c.inflight)))
		queued := len(c.queue) > 0
		c.mu.Unlock()
		c.flushEvents()
		if queued {
			c.cond.Broadcast() // a backup, or a backoff that may have elapsed
		}
		for _, deliver := range failed {
			deliver()
		}
	}
}

// Service is the exported RPC receiver ("Service.NextTask",
// "Service.Submit", "Service.Heartbeat").
type Service struct{ c *Coordinator }

// NextTask blocks until a task or shutdown is available. net/rpc runs each
// call on its own goroutine, so blocking here parks only the asking worker.
// Asking for work counts as a heartbeat (and re-admits a quarantined
// worker: if it can ask, it is alive).
func (s *Service) NextTask(workerID string, reply *RPCTask) error {
	c := s.c
	defer c.flushEvents() // after the unlock below (defers run LIFO)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beatLocked(workerID)
	ready := func(a *attempt) bool { return !a.readyAt.After(time.Now()) }
	i := slices.IndexFunc(c.queue, ready)
	for ; i < 0 && !c.shutdown; i = slices.IndexFunc(c.queue, ready) {
		c.cond.Wait()
	}
	if i < 0 {
		*reply = RPCTask{Shutdown: true}
		return nil
	}
	a := c.queue[i]
	c.queue = slices.Delete(c.queue, i, i+1)
	a.worker, a.started = workerID, time.Now()
	a.n++
	if a.backup {
		c.backups[a.task.ID] = a
	} else {
		c.inflight[a.task.ID] = a
	}
	c.beatLocked(workerID) // cond.Wait may have parked past the timeout
	mInflightGauge.Set(int64(len(c.inflight)))
	obs.GetCounter(obs.Labeled("cluster.coord.tasks.assigned", "worker", workerID)).Inc()
	*reply = a.task
	return nil
}

// Heartbeat reports worker liveness; workers send it from a side goroutine
// so multi-minute evaluations do not read as death.
func (s *Service) Heartbeat(workerID string, ack *bool) error {
	c := s.c
	c.mu.Lock()
	c.beatLocked(workerID)
	c.mu.Unlock()
	c.flushEvents()
	mHeartbeats.Inc()
	obs.GetCounter(obs.Labeled("cluster.coord.heartbeats", "worker", workerID)).Inc()
	*ack = true
	return nil
}

// Submit delivers a result to the coordinator. Successful results and a
// worker's terminal Failed one resolve the task (late duplicates from
// requeued copies are dropped); worker-side errors consume an attempt and
// requeue, failing terminally only once the retry budget is spent.
func (s *Service) Submit(res RPCResult, ack *bool) error {
	c := s.c
	*ack = true
	var deliver func()
	c.mu.Lock()
	c.beatLocked(res.WorkerID)
	obs.GetCounter(obs.Labeled("cluster.coord.results", "worker", res.WorkerID)).Inc()
	orig, a := c.open[res.ID], c.runningLocked(res.ID, res.WorkerID)
	switch {
	case orig == nil:
		// The race's loser arriving (a requeued task's earlier worker, or the
		// slower side of a speculation pair): drop the result.
		mResultsDuplicate.Inc()
	case res.Err != "" && !res.Failed:
		if a == orig {
			deliver = c.requeueLocked(a, res.Err)
		} else if a != nil {
			// A failed backup is dropped, not retried: the original still
			// runs and owns the retry budget.
			delete(c.backups, res.ID)
		}
		// Otherwise another attempt is already queued or running; drop.
	default:
		if a == nil {
			a = orig // a reclaimed attempt finishing after all still resolves the task
		} else if c.cfg.SpeculativeQuantile > 0 {
			c.latencies = append(c.latencies, time.Since(a.started))
			c.latencies = c.latencies[max(0, len(c.latencies)-latencyWindow):]
		}
		res.Attempts = a.n
		c.resolveLocked(res.ID)
		if a.backup {
			mSpeculationWon.Inc()
			c.emitLocked(nas.FaultEvent{Kind: nas.FaultSpeculationWon, Worker: res.WorkerID, CandidateID: res.ID, Attempt: res.Attempts})
		}
		deliver = func() { orig.done(res) }
	}
	mInflightGauge.Set(int64(len(c.inflight)))
	c.mu.Unlock()
	c.flushEvents()
	if deliver != nil {
		deliver()
	}
	return nil
}

// Serve registers the coordinator service and accepts connections until the
// listener closes.
func (c *Coordinator) Serve(l net.Listener) error {
	srv := rpc.NewServer()
	if err := srv.Register(&Service{c: c}); err != nil {
		return err
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go srv.ServeConn(conn)
	}
}

// Sentinel errors an ExecuteHook returns to simulate worker failures
// (resilience/faultinject; production workers never set a hook).
var (
	// ErrCrash makes the worker drop its coordinator connection and stop
	// heartbeating — from the coordinator's view, the process died.
	ErrCrash = errors.New("cluster: injected worker crash")
	// ErrDropResult makes the worker skip Submit for this one task but keep
	// serving (a lost result; the coordinator's deadline reclaims the task).
	ErrDropResult = errors.New("cluster: injected result drop")
)

// Worker executes tasks fetched from a coordinator. It caches one
// application per configuration so repeated tasks do not regenerate data.
type Worker struct {
	// ID labels the worker in results.
	ID string
	// DType, when non-empty, is the training element type of tasks that ship
	// no RPCTask.DType; a task that names one always wins, keeping mixed
	// fleets consistent. See DESIGN.md §14.
	DType string
	// HeartbeatEvery is the liveness-ping period Run uses while connected.
	// 0 selects the 2s default; negative disables heartbeats entirely
	// (tests simulating a silent stall).
	HeartbeatEvery time.Duration
	// ExecuteHook, when set, replaces Execute in Run's task loop. Returning
	// ErrCrash kills the connection and Run; ErrDropResult suppresses the
	// Submit. Any other error aborts Run with it. Fault-injection only.
	ExecuteHook func(RPCTask) (RPCResult, error)

	appMu  sync.Mutex
	appKey string
	app    *apps.App
}

// appFor returns (building if needed) the application a task needs.
func (w *Worker) appFor(t RPCTask) (*apps.App, error) {
	key := fmt.Sprintf("%s/%d/%d/%d", t.App, t.DataSeed, t.TrainN, t.ValN)
	w.appMu.Lock()
	defer w.appMu.Unlock()
	if w.appKey == key {
		return w.app, nil
	}
	app, err := apps.New(t.App, t.DataSeed, apps.Config{Data: data.Config{TrainN: t.TrainN, ValN: t.ValN}})
	if err != nil {
		return nil, err
	}
	w.appKey, w.app = key, app
	return app, nil
}

// Execute runs one task locally (exported for tests and for embedding the
// worker in-process). The envelope is the worker's: dtype and application
// resolution. The evaluation is nas.Evaluator's, the body every in-process
// executor runs, its store standing in for the wire: the shipped provider
// in, the trained bytes out, neither copied nor re-encoded.
func (w *Worker) Execute(t RPCTask) RPCResult {
	defer mExecSeconds.Start().Stop()
	res := RPCResult{Record: trace.Record{ID: t.ID}, WorkerID: w.ID}
	fail := func(err error) RPCResult {
		res.Err = err.Error()
		return res
	}
	dt, err := tensor.ParseDType(cmp.Or(t.DType, w.DType))
	if err != nil {
		return fail(err)
	}
	app, err := w.appFor(t)
	if err != nil {
		return fail(err)
	}
	matcher, ok := core.MatcherByName(t.Matcher)
	if !ok {
		return fail(fmt.Errorf("cluster: unknown matcher %q", t.Matcher))
	}
	store := checkpoint.NewCASMemStore()
	task := nas.Task{ID: t.ID, Arch: t.Arch, ParentID: -1, Seed: t.Seed}
	if len(t.Parent) > 0 {
		// The provider's candidate number does not travel with its bytes;
		// any slot but the task's own serves.
		task.ParentID = t.ID + 1
		if err := store.SaveEncoded(nas.CandidateID(task.ParentID), t.Parent); err != nil {
			return fail(err)
		}
	}
	eval := nas.Evaluator{App: app, Matcher: matcher, Store: store, DType: dt}
	r := eval.EvaluateCtx(context.Background(), task)
	res.Record = r.Record
	if r.Failed {
		// A diverged candidate: a retry would diverge the same way, and
		// there is no checkpoint to ship.
		res.Err = r.Err.Error()
		return res
	}
	if r.Err != nil {
		return fail(r.Err)
	}
	if res.Checkpoint, err = store.LoadEncoded(nas.CandidateID(t.ID)); err != nil {
		return fail(err)
	}
	return res
}

// dial opens the coordinator connection, retrying on failure: workers
// commonly start before the coordinator finishes binding its listener.
func (w *Worker) dial(addr string) (*rpc.Client, error) {
	var lastErr error
	for i := 0; i < dialAttempts; i++ {
		if i > 0 {
			mRPCRetries.Inc()
			time.Sleep(dialDelay)
		}
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return rpc.NewClient(conn), nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Run connects to the coordinator and processes tasks until shutdown. A side
// goroutine heartbeats every HeartbeatEvery so the coordinator distinguishes
// "evaluating a slow candidate" from "dead".
func (w *Worker) Run(addr string) error {
	client, err := w.dial(addr)
	if err != nil {
		return fmt.Errorf("cluster: worker %s dialing %s: %w", w.ID, addr, err)
	}
	defer client.Close()

	beatEvery := cmp.Or(w.HeartbeatEvery, 2*time.Second)
	stopBeats := make(chan struct{})
	defer close(stopBeats)
	if beatEvery > 0 {
		go func() {
			ticker := time.NewTicker(beatEvery)
			defer ticker.Stop()
			for {
				select {
				case <-stopBeats:
					return
				case <-ticker.C:
					var ack bool
					// Errors here mean the connection died; the task loop
					// will observe the same failure and exit.
					_ = call(client, "Service.Heartbeat", w.ID, &ack)
				}
			}
		}()
	}

	execute := w.ExecuteHook
	if execute == nil {
		execute = func(t RPCTask) (RPCResult, error) { return w.Execute(t), nil }
	}
	for {
		var task RPCTask
		if err := call(client, "Service.NextTask", w.ID, &task); err != nil {
			return fmt.Errorf("cluster: worker %s fetching task: %w", w.ID, err)
		}
		if task.Shutdown {
			return nil
		}
		res, err := execute(task)
		switch {
		case errors.Is(err, ErrCrash):
			return nil // drop connection + heartbeats: simulated death
		case errors.Is(err, ErrDropResult):
			continue // lose the result, keep serving
		case err != nil:
			return fmt.Errorf("cluster: worker %s execute hook: %w", w.ID, err)
		}
		var ack bool
		if err := call(client, "Service.Submit", res, &ack); err != nil {
			return fmt.Errorf("cluster: worker %s submitting result: %w", w.ID, err)
		}
	}
}
