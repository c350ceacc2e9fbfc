// Package faultinject is the deterministic fault-injection harness behind
// the resilience tests: it wraps a cluster worker's evaluator (ExecuteHook)
// to inject worker crashes, lost results and task failures from a seeded
// schedule, so "kill K workers mid-search" is a reproducible unit test
// instead of a manual drill.
//
// Faults are scripted per worker as a Plan; NewSchedule draws one Plan per
// worker from a seeded RNG so a whole cluster's failure pattern is a single
// int64. Production workers never set the hook, so the package costs
// nothing outside tests.
package faultinject

import (
	"math/rand"

	"swtnas/internal/cluster"
	"swtnas/internal/obs"
	"swtnas/internal/trace"
)

// Injected-fault telemetry (internal/obs): how many of each fault class the
// harness actually fired, so tests assert the scenario happened rather than
// trusting the schedule.
var (
	mCrashes = obs.GetCounter("faultinject.crashes")
	mDrops   = obs.GetCounter("faultinject.drops")
	mFails   = obs.GetCounter("faultinject.failures")
)

// Plan scripts the faults one worker injects, counted over the tasks it
// receives (1-based). The zero Plan injects nothing.
type Plan struct {
	// CrashAtTask makes the worker die (cluster.ErrCrash: connection
	// dropped, heartbeats stop, Run returns) upon receiving its Nth task,
	// without executing or submitting it. 0 never crashes.
	CrashAtTask int
	// DropEvery loses the result of every Nth executed task
	// (cluster.ErrDropResult: the evaluation runs but Submit is skipped),
	// simulating a result lost in transit. 0 never drops.
	DropEvery int
	// FailEvery turns every Nth executed task into a task error (RPCResult
	// with Err set), exercising the coordinator's retry path. 0 never fails.
	FailEvery int
}

// Schedule is one Plan per worker, indexed like the worker slice it was
// drawn for.
type Schedule struct {
	Plans []Plan
}

// Options bounds the random schedule NewSchedule draws.
type Options struct {
	// CrashWorkers is how many of the workers crash mid-run.
	CrashWorkers int
	// MaxCrashTask bounds the 1-based task index at which a crashing worker
	// dies (default 2: die on the first or second task).
	MaxCrashTask int
	// DropEvery / FailEvery apply uniformly to every worker (0 disables, as
	// in Plan).
	DropEvery int
	FailEvery int
}

// NewSchedule draws a deterministic failure schedule for `workers` workers:
// which workers crash and when depends only on seed, so a failing test
// reproduces exactly.
func NewSchedule(seed int64, workers int, o Options) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Plans: make([]Plan, workers)}
	for i := range s.Plans {
		s.Plans[i] = Plan{DropEvery: o.DropEvery, FailEvery: o.FailEvery}
	}
	maxCrash := o.MaxCrashTask
	if maxCrash <= 0 {
		maxCrash = 2
	}
	perm := rng.Perm(workers)
	for i := 0; i < o.CrashWorkers && i < workers; i++ {
		s.Plans[perm[i]].CrashAtTask = 1 + rng.Intn(maxCrash)
	}
	return s
}

// Wrap installs p on w as an ExecuteHook. The hook counts tasks, fires the
// plan's faults at their scripted indices, and otherwise delegates to
// w.Execute. Wrap must be called before w.Run.
func Wrap(w *cluster.Worker, p Plan) {
	n := 0
	w.ExecuteHook = func(t cluster.RPCTask) (cluster.RPCResult, error) {
		n++
		if p.CrashAtTask > 0 && n >= p.CrashAtTask {
			mCrashes.Inc()
			return cluster.RPCResult{}, cluster.ErrCrash
		}
		if p.FailEvery > 0 && n%p.FailEvery == 0 {
			mFails.Inc()
			return cluster.RPCResult{Record: trace.Record{ID: t.ID}, WorkerID: w.ID, Err: "faultinject: injected task failure"}, nil
		}
		res := w.Execute(t)
		if p.DropEvery > 0 && n%p.DropEvery == 0 {
			mDrops.Inc()
			return cluster.RPCResult{}, cluster.ErrDropResult
		}
		return res, nil
	}
}

// WrapAll pairs each worker with its scheduled plan (workers beyond the
// schedule get the zero Plan).
func (s *Schedule) WrapAll(workers []*cluster.Worker) {
	for i, w := range workers {
		if i < len(s.Plans) {
			Wrap(w, s.Plans[i])
		}
	}
}
