package sim

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"swtnas/internal/stats"
)

// SpeculationConfig models speculative re-execution: when a running task's
// elapsed time exceeds Multiplier times the Quantile of the workload's
// nominal duration distribution, a backup attempt is launched on a free
// evaluator and the first result wins (the loser runs to completion and its
// result is scrubbed, matching the real coordinator's duplicate handling).
type SpeculationConfig struct {
	// Enabled turns speculation on.
	Enabled bool
	// Quantile of the nominal task-duration distribution used as the
	// straggler threshold base (0 -> 0.9).
	Quantile float64
	// Multiplier scales the quantile into the trigger threshold (0 -> 1.5).
	Multiplier float64
}

func (s SpeculationConfig) quantile() float64 {
	if s.Quantile <= 0 || s.Quantile >= 1 {
		return 0.9
	}
	return s.Quantile
}

func (s SpeculationConfig) multiplier() float64 {
	if s.Multiplier <= 0 {
		return 1.5
	}
	return s.Multiplier
}

// FleetConfig configures one simulated candidate-estimation phase: the
// workload, the scheduler and FS models, and — both off at their zero values —
// the coordinator's heartbeat-monitor load and speculative re-execution.
type FleetConfig struct {
	// Evaluators is the simulated evaluator (GPU) count (paper: 8, 16, 32).
	Evaluators int
	// Tasks is the workload, dispatched FCFS to free evaluators.
	Tasks []Task
	// SchedulerLatency is the serialized per-task dispatch cost at the
	// coordinator (Ray head node). It bounds throughput for very short tasks
	// — the paper's NT3 non-linearity from 16 to 32 GPUs, which appears in
	// the baseline too. The heartbeat-monitor load inflates it: with load l
	// in [0,1), effective latency is SchedulerLatency/(1-l).
	SchedulerLatency time.Duration
	// HeartbeatEvery and HeartbeatCost model the coordinator's monitor
	// loop: Evaluators/HeartbeatEvery heartbeats per second, each costing
	// HeartbeatCost of coordinator time. Their product is the monitor
	// load; at load -> 1 the coordinator saturates and dispatch stalls —
	// the breaking point the scale study locates.
	HeartbeatEvery time.Duration
	HeartbeatCost  time.Duration
	// WriteCheckpoints enables the per-candidate checkpoint write the
	// weight-transfer schemes add over the baseline.
	WriteCheckpoints bool
	// MatchOverhead is the LP/LCS compute cost added per transferring task
	// (paper Section VIII-E: at most 150 ms).
	MatchOverhead time.Duration
	// FS is the shared-FS model; zero value -> DefaultFS.
	FS FSModel
	// Speculation configures speculative re-execution.
	Speculation SpeculationConfig
}

// coordinatorLoad is the fraction of coordinator time the heartbeat monitor
// consumes (unclamped; >= 1 means saturation).
func (cfg FleetConfig) coordinatorLoad() float64 {
	if cfg.HeartbeatEvery <= 0 || cfg.HeartbeatCost <= 0 {
		return 0
	}
	return float64(cfg.Evaluators) * float64(cfg.HeartbeatCost) / float64(cfg.HeartbeatEvery)
}

// FleetResult extends Result with the fleet-model outputs.
type FleetResult struct {
	Result
	// CoordinatorLoad is the heartbeat-monitor load (>= 1: saturated);
	// DispatchLatency is the load-inflated effective scheduler latency.
	CoordinatorLoad float64
	DispatchLatency time.Duration
	// QueueWait* summarize the per-attempt dispatch delay — the time
	// between an evaluator freeing up and its next task starting. Its
	// blowup with fleet size is the coordinator-saturation signal.
	QueueWaitMean time.Duration
	QueueWaitP95  time.Duration
	QueueWaitMax  time.Duration
	// Speculated counts backup attempts launched; SpeculationWon counts
	// tasks whose backup finished first. Attempts is total dispatches
	// (tasks + backups).
	Speculated     int
	SpeculationWon int
	Attempts       int
}

// event phases of an attempt on an evaluator.
const (
	fevFree = iota // evaluator finished (or is checking the queue)
	fevDone        // an attempt's training finished
	fevSpec        // straggler check for a running attempt
)

type attempt struct {
	task    int
	backup  bool
	dur     time.Duration // effective training duration of this attempt
	enqueue time.Duration // when the attempt became dispatchable
}

// SimulateFleet replays the workload on the virtual cluster and returns its
// timing: an event-driven simulation in which checkpoint reads and writes are
// serviced by the shared file system in the order they are issued in
// simulated time. Dispatch is FCFS with
// backups queued at the front (the real coordinator requeues urgent work the
// same way); a speculation trigger fires only while its task is still
// running, and the loser of a race runs to completion on its evaluator —
// there is no cancellation RPC, matching the real system.
func SimulateFleet(cfg FleetConfig) (FleetResult, error) {
	if cfg.Evaluators <= 0 {
		return FleetResult{}, fmt.Errorf("sim: evaluator count %d must be positive", cfg.Evaluators)
	}
	if len(cfg.Tasks) == 0 {
		return FleetResult{}, fmt.Errorf("sim: no tasks to simulate")
	}
	fs := cfg.FS
	if fs == (FSModel{}) {
		fs = DefaultFS()
	}
	load := cfg.coordinatorLoad()
	dispatch := cfg.SchedulerLatency
	if load > 0 && dispatch > 0 {
		l := load
		if l > 0.99 {
			l = 0.99
		}
		dispatch = time.Duration(float64(dispatch) / (1 - l))
	}

	res := FleetResult{
		Result:          Result{GPUBusy: make([]time.Duration, cfg.Evaluators)},
		CoordinatorLoad: load,
		DispatchLatency: dispatch,
	}

	// Nominal (healthy-evaluator) durations; SlowFactor applies only to a
	// task's first attempt. The speculation threshold comes from this
	// distribution, like the real coordinator's completed-latency window.
	nominal := make([]time.Duration, len(cfg.Tasks))
	for i, t := range cfg.Tasks {
		nominal[i] = t.TrainTime
	}
	var threshold time.Duration
	if cfg.Speculation.Enabled {
		q := stats.DurationQuantile(nominal, cfg.Speculation.quantile())
		threshold = time.Duration(float64(q) * cfg.Speculation.multiplier())
	}

	var (
		fsFree    time.Duration
		schedFree time.Duration
		events    = &eventHeap{}
		seq       int
		queue     []*attempt // pending attempts; backups join at the front
		idle      []int      // evaluators with nothing to run
		running   = make([]*attempt, cfg.Evaluators)
		began     = make([]time.Duration, cfg.Evaluators)
		doneAt    = make([]time.Duration, len(cfg.Tasks))
		done      = make([]bool, len(cfg.Tasks))
		spec      = make([]bool, len(cfg.Tasks)) // backup already launched
		waits     []time.Duration
	)
	push := func(t time.Duration, phase, gpu int) {
		heap.Push(events, simEvent{t: t, phase: phase, gpu: gpu, seq: seq})
		seq++
	}
	fsOp := func(t time.Duration, bytes int64, bandwidth float64) time.Duration {
		cost := fs.opTime(bytes, bandwidth)
		if !fs.Serialized {
			return t + cost
		}
		start := max(t, fsFree)
		fsFree = start + cost
		return fsFree
	}

	for i := range cfg.Tasks {
		slow := cfg.Tasks[i].SlowFactor
		if slow <= 0 {
			slow = 1
		}
		queue = append(queue, &attempt{task: i, dur: time.Duration(float64(nominal[i]) * slow)})
	}
	for g := 0; g < cfg.Evaluators; g++ {
		push(0, fevFree, g)
	}

	for events.Len() > 0 {
		ev := heap.Pop(events).(simEvent)
		g := ev.gpu
		switch ev.phase {
		case fevFree:
			if a := running[g]; a != nil {
				res.GPUBusy[g] += ev.t - began[g]
				running[g] = nil
			}
			if len(queue) == 0 {
				idle = append(idle, g)
				continue
			}
			a := queue[0]
			queue = queue[1:]
			running[g] = a
			began[g] = ev.t
			res.Attempts++
			t := ev.t
			if dispatch > 0 {
				start := max(t, schedFree)
				schedFree = start + dispatch
				res.IOBusy += schedFree - t
				t = schedFree
			}
			waits = append(waits, t-max(ev.t, a.enqueue))
			task := cfg.Tasks[a.task]
			if task.LoadParent {
				ioEnd := fsOp(t, task.CheckpointBytes, fs.ReadBandwidth)
				res.IOBusy += (ioEnd - t) + cfg.MatchOverhead
				t = ioEnd + cfg.MatchOverhead
			}
			res.TrainBusy += a.dur
			if threshold > 0 && !a.backup && a.dur > threshold {
				push(t+threshold, fevSpec, g)
			}
			push(t+a.dur, fevDone, g)
		case fevSpec:
			// Straggler check: the attempt this event was scheduled for is
			// still on g iff the task is not done and g still runs it.
			a := running[g]
			if a == nil || a.backup || done[a.task] || spec[a.task] {
				continue
			}
			spec[a.task] = true
			res.Speculated++
			b := &attempt{task: a.task, backup: true, dur: nominal[a.task], enqueue: ev.t}
			queue = append([]*attempt{b}, queue...)
			if len(idle) > 0 {
				w := idle[0]
				idle = idle[1:]
				push(ev.t, fevFree, w)
			}
		case fevDone:
			a := running[g]
			t := ev.t
			if cfg.WriteCheckpoints {
				ioEnd := fsOp(t, cfg.Tasks[a.task].CheckpointBytes, fs.WriteBandwidth)
				res.IOBusy += ioEnd - t
				t = ioEnd
			}
			if !done[a.task] {
				done[a.task] = true
				doneAt[a.task] = t
				if a.backup {
					res.SpeculationWon++
				}
			}
			push(t, fevFree, g)
		}
	}

	for _, t := range doneAt {
		if t > res.Makespan {
			res.Makespan = t
		}
	}
	if len(waits) > 0 {
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		var sum time.Duration
		for _, w := range waits {
			sum += w
		}
		res.QueueWaitMean = sum / time.Duration(len(waits))
		res.QueueWaitP95 = waits[int(0.95*float64(len(waits)-1)+0.5)]
		res.QueueWaitMax = waits[len(waits)-1]
	}
	return res, nil
}
