// Package cluster is the multi-node executor of the one search loop
// (nas.Run): TCP-distributed evaluators over net/rpc, the stand-in for
// DeepHyper's multi-node Ray/MPI/Balsam backends. A Coordinator queues
// tasks for polling Workers with fault-tolerant coordination (heartbeats,
// quarantine, requeue); Coordinator.Bind makes it the nas.Executor of one
// search, and each Worker runs nas.Evaluator behind the RPC envelope,
// returning the evaluator's trace.Record whole. The paper's scalability study
// (Fig 10) runs on the simulator in internal/sim instead, which needs no GPUs.
package cluster

import (
	"context"
	"errors"
	"fmt"
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
)

// Worker.Run's dial schedule.
const (
	dialAttempts = 5
	dialDelay    = 100 * time.Millisecond
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
	// DType is the search's training element type ("", "f64" or "f32", the
	// tensor.ParseDType spellings; "" is f64), with nas.Evaluator.DType's
	// meaning; the returned checkpoint is dtype-tagged.
	DType string
}

// RPCResult returns one evaluation to the coordinator: the candidate's trace
// record whole, as the worker's nas.Evaluator filled it (evaluation latency
// included), beside the trained bytes. Record.ID names the task whatever the
// outcome. Record.Failed marks a terminal failure: emitted by the coordinator
// after the task exhausted its retry budget, or by the worker for a candidate
// that diverged (nas.Evaluator's verdict, which a retry would repeat; it
// ships no checkpoint). Plain worker errors (Err set, Failed false) are
// retried internally and never reach the search.
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
	// Heartbeat) for this long; its in-flight tasks requeue, and it is
	// re-admitted when it heartbeats again. Default 15s.
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds the executions one task may consume before the
	// coordinator surfaces it as a Failed result instead of retrying.
	// Default 3.
	MaxAttempts int
	// RetryBackoff delays a requeued task's re-dispatch, doubling per
	// consumed attempt. Default 100ms.
	RetryBackoff time.Duration
}

func (f FaultConfig) withDefaults() FaultConfig {
	orDefault(&f.HeartbeatTimeout, 15*time.Second)
	orDefault(&f.MaxAttempts, 3)
	orDefault(&f.RetryBackoff, 100*time.Millisecond)
	return f
}

// orDefault replaces a non-positive *v with d.
func orDefault[T int | time.Duration](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

// attempt is the scheduling state of one unresolved task: queued (not
// dispatched before readyAt, its retry backoff) or running on worker. One
// attempt follows a task through every retry.
type attempt struct {
	task    RPCTask
	done    func(RPCResult) // receives the task's one terminal result
	n       int             // executions consumed, the running one included
	readyAt time.Time
	worker  string
}

// workerState is the coordinator's liveness view of one worker.
type workerState struct {
	lastBeat    time.Time
	quarantined bool
	silence     *time.Timer // calls Coordinator.silent HeartbeatTimeout after the last beat
}

// Coordinator is the scheduler-side RPC endpoint: workers poll NextTask,
// push Submit, and report liveness via Heartbeat. It is the stand-in for
// DeepHyper's Ray head node, hardened for worker preemption: tasks whose
// worker crashes or goes silent are requeued (bounded attempts with backoff)
// and silent workers are quarantined until they heartbeat again. It runs no
// goroutine of its own: each worker's silence and each retry's backoff is a
// timer.
type Coordinator struct {
	cfg FaultConfig

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*attempt       // waiting for a worker, in dispatch order
	open     map[int]*attempt // every unresolved task's attempt
	inflight map[int]*attempt // attempts running on a worker
	workers  map[string]*workerState
	shutdown bool
}

// NewCoordinator creates a coordinator with the default fault policy.
func NewCoordinator() *Coordinator { return NewCoordinatorWith(FaultConfig{}) }

// NewCoordinatorWith creates a coordinator with an explicit fault policy.
func NewCoordinatorWith(cfg FaultConfig) *Coordinator {
	c := &Coordinator{
		cfg:      cfg.withDefaults(),
		open:     map[int]*attempt{},
		inflight: map[int]*attempt{},
		workers:  map[string]*workerState{},
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// enqueue adds a task for the next free worker. Its one terminal result — a
// worker's successful submission, or a Failed result the coordinator
// synthesizes once the retry budget is spent; duplicate submissions are
// dropped — goes to done, called outside the coordinator's lock from
// whichever goroutine resolved the task.
func (c *Coordinator) enqueue(t RPCTask, done func(RPCResult)) {
	a := &attempt{task: t, done: done}
	c.mu.Lock()
	c.open[t.ID] = a
	c.queue = append(c.queue, a)
	c.mu.Unlock()
	c.cond.Signal()
}

// Shutdown makes every pending and future NextTask return a shutdown task
// and stops the workers' silence timers.
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	c.shutdown = true
	for _, ws := range c.workers {
		if ws.silence != nil {
			ws.silence.Stop()
		}
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// beatLocked records worker liveness, arming its silence timer on its first
// beat and re-admitting it from quarantine. Callers hold c.mu.
func (c *Coordinator) beatLocked(workerID string) {
	ws := c.workers[workerID]
	if ws == nil {
		ws = &workerState{}
		c.workers[workerID] = ws
	}
	ws.lastBeat = time.Now()
	switch {
	case c.shutdown:
	case ws.silence == nil:
		ws.silence = time.AfterFunc(c.cfg.HeartbeatTimeout, func() { c.silent(workerID) })
	case ws.quarantined:
		ws.silence.Reset(c.cfg.HeartbeatTimeout) // silent left it disarmed
	}
	if ws.quarantined {
		ws.quarantined = false
		mReadmitted.Inc()
		obs.GetCounter(obs.Labeled("cluster.coord.readmitted", "worker", workerID)).Inc()
	}
}

// resolveLocked forgets a task that reached its terminal result, whether it
// is queued or running. Callers hold c.mu.
func (c *Coordinator) resolveLocked(id int) {
	delete(c.open, id)
	delete(c.inflight, id)
	c.queue = slices.DeleteFunc(c.queue, func(a *attempt) bool { return a.task.ID == id })
}

// requeueLocked returns an attempt that ended without a result to the
// schedule: a retry with backoff while attempts remain, a synthesized Failed
// result otherwise. cause ("silent" or "error") labels the requeue count. It
// returns the delivery of that terminal result (nil for a retry); callers
// hold c.mu and must call it after unlocking.
func (c *Coordinator) requeueLocked(a *attempt, reason, cause string) (deliver func()) {
	id := a.task.ID
	if a.n >= c.cfg.MaxAttempts {
		c.resolveLocked(id)
		mTasksFailed.Inc()
		res := RPCResult{Record: trace.Record{ID: id, Failed: true}, WorkerID: "coordinator", Err: reason, Attempts: a.n}
		return func() { a.done(res) }
	}
	delete(c.inflight, id)
	backoff := c.cfg.RetryBackoff << (a.n - 1)
	a.readyAt = time.Now().Add(backoff)
	c.queue = append(c.queue, a)
	// Armed after readyAt is set, the timer fires once the attempt is
	// ready; broadcasting under the lock wakes every NextTask that found it
	// not yet ready, since each holds the lock from that check into Wait.
	time.AfterFunc(backoff, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	mTasksRequeued.Inc()
	obs.GetCounter(obs.Labeled("cluster.tasks.requeued", "cause", cause)).Inc()
	return nil
}

// silent is a worker's silence timer: a worker that has not beaten for
// HeartbeatTimeout is quarantined and its in-flight tasks are requeued. A
// worker that has beaten since the timer was armed gets it back for the time
// left; only a quarantined one is left without it, until it beats again.
func (c *Coordinator) silent(workerID string) {
	var failed []func()
	c.mu.Lock()
	ws := c.workers[workerID]
	left := c.cfg.HeartbeatTimeout - time.Since(ws.lastBeat)
	switch {
	case c.shutdown:
	case left > 0:
		ws.silence.Reset(left)
	default:
		ws.quarantined = true
		mQuarantined.Inc()
		obs.GetCounter(obs.Labeled("cluster.coord.quarantined", "worker", workerID)).Inc()
		for _, a := range c.inflight {
			if a.worker != workerID {
				continue
			}
			if deliver := c.requeueLocked(a, fmt.Sprintf("worker %s presumed dead (no heartbeat)", workerID), "silent"); deliver != nil {
				failed = append(failed, deliver)
			}
		}
		mInflightGauge.Set(int64(len(c.inflight)))
	}
	c.mu.Unlock()
	for _, deliver := range failed {
		deliver()
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
	a.worker = workerID
	a.n++
	c.inflight[a.task.ID] = a
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
	a := c.open[res.ID]
	switch {
	case a == nil:
		// The task is resolved already (a reclaimed worker's result arriving
		// after another's, or a repeated submission): drop the result.
		mResultsDuplicate.Inc()
	case res.Err != "" && !res.Failed:
		// Only the attempt's holder consumes it: the error of a worker it
		// was reclaimed from is dropped, the task queued or running again.
		if c.inflight[res.ID] == a && a.worker == res.WorkerID {
			deliver = c.requeueLocked(a, res.Err, "error")
		}
	default:
		// The holder's result resolves the task, and so does that of a
		// worker the attempt was reclaimed from, finishing after all.
		res.Attempts = a.n
		c.resolveLocked(res.ID)
		deliver = func() { a.done(res) }
	}
	mInflightGauge.Set(int64(len(c.inflight)))
	c.mu.Unlock()
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

// ErrCrash is what an ExecuteHook returns to simulate a worker's death
// (resilience/faultinject; production workers never set a hook): the worker
// drops its coordinator connection and stops heartbeating.
var ErrCrash = errors.New("cluster: injected worker crash")

// Worker executes tasks fetched from a coordinator. It caches one
// application per configuration so repeated tasks do not regenerate data.
type Worker struct {
	// ID labels the worker in results.
	ID string
	// HeartbeatEvery is the liveness-ping period Run uses while connected;
	// a non-positive value selects the 2s default.
	HeartbeatEvery time.Duration
	// ExecuteHook, when set, replaces Execute in Run's task loop. Returning
	// ErrCrash kills the connection and Run; any other error aborts Run with
	// it. Fault-injection only.
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
	dt, err := tensor.ParseDType(t.DType)
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

	beatEvery := w.HeartbeatEvery
	if beatEvery <= 0 {
		beatEvery = 2 * time.Second
	}
	stopBeats := make(chan struct{})
	defer close(stopBeats)
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
		case err != nil:
			return fmt.Errorf("cluster: worker %s execute hook: %w", w.ID, err)
		}
		var ack bool
		if err := call(client, "Service.Submit", res, &ack); err != nil {
			return fmt.Errorf("cluster: worker %s submitting result: %w", w.ID, err)
		}
	}
}
