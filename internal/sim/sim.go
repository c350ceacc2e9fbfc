// Package sim is the discrete-event cluster simulator: it replays a
// candidate-estimation phase on a configurable number of virtual GPUs with a
// shared-file-system cost model, so scheduler and storage changes can be
// tested at fleet scale before they are built (the paper's Fig 10 study,
// since this host has no GPUs).
//
// The package has two layers:
//
//   - SimulateFleet (fleet.go): the engine — FCFS dispatch to free
//     evaluators, serialized scheduler latency and a shared-FS model for
//     checkpoint I/O (what the Fig 10 study uses, every other knob at
//     zero), plus an analytic heartbeat-monitor load on the coordinator,
//     straggler injection, and speculative re-execution — first-result-wins
//     backups for tasks that overrun a quantile of the workload's latency
//     distribution.
//   - CostModel (cost.go) and Replay (replay.go): empirical cost samplers
//     calibrated from real obs snapshots, and trace replay that validates
//     predicted against measured makespan.
package sim

import "time"

// FSModel is the shared-file-system cost model. An operation costs
// PerOpLatency plus bytes/bandwidth. With Serialized set, all checkpoint
// I/O queues on a single FCFS resource (a saturated parallel FS); otherwise
// each operation only occupies its own GPU's timeline (a parallel FS with
// headroom, where slow effective bandwidth — e.g. the paper's ~4 s Ray
// object-store reads for NT3's 40 MB checkpoints — shows up as per-task
// overhead rather than contention).
type FSModel struct {
	// WriteBandwidth and ReadBandwidth are in bytes/second.
	WriteBandwidth, ReadBandwidth float64
	// PerOpLatency is the fixed cost of each open/transfer round trip.
	PerOpLatency time.Duration
	// Serialized queues all operations on one FCFS resource.
	Serialized bool
}

// DefaultFS is a modest parallel-FS configuration.
func DefaultFS() FSModel {
	return FSModel{
		WriteBandwidth: 4e9,
		ReadBandwidth:  4e9,
		PerOpLatency:   2 * time.Millisecond,
		Serialized:     true,
	}
}

func (f FSModel) opTime(bytes int64, bandwidth float64) time.Duration {
	if bandwidth <= 0 {
		return f.PerOpLatency
	}
	return f.PerOpLatency + time.Duration(float64(bytes)/bandwidth*float64(time.Second))
}

// Task is one candidate evaluation replayed by the simulator.
type Task struct {
	// TrainTime is the candidate's modeled training duration.
	TrainTime time.Duration
	// CheckpointBytes is the encoded checkpoint size; a task that loads a
	// provider reads that many bytes too.
	CheckpointBytes int64
	// LoadParent marks tasks that read a provider checkpoint before
	// training (weight-transfer schemes after the population fills).
	LoadParent bool
	// SlowFactor injects a straggler: the task's training duration is
	// multiplied by it on the evaluator it first lands on (0 or 1 -> no
	// slowdown). Speculative backups re-run at the nominal duration — the
	// backup lands on a healthy evaluator.
	SlowFactor float64
}

// Result summarizes a simulated run.
type Result struct {
	// Makespan is the end-to-end candidate-estimation time (Fig 10's y).
	Makespan time.Duration
	// TrainBusy is the summed pure-training time across GPUs.
	TrainBusy time.Duration
	// IOBusy is the summed time tasks spent waiting for or performing
	// checkpoint I/O.
	IOBusy time.Duration
	// GPUBusy is the per-GPU total busy time.
	GPUBusy []time.Duration
}

// OverheadFraction is the share of GPU time not spent training.
func (r Result) OverheadFraction() float64 {
	total := r.TrainBusy + r.IOBusy
	if total == 0 {
		return 0
	}
	return float64(r.IOBusy) / float64(total)
}

type simEvent struct {
	t     time.Duration
	phase int
	gpu   int
	seq   int // FIFO tie-break for simultaneous events
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
