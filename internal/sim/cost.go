package sim

import (
	"math/rand"
	"sort"
	"time"

	"swtnas/internal/obs"
)

// Sampler draws values from a cost distribution. obs.HistogramSnapshot
// satisfies it directly, so a histogram recorded by a real run — eval
// latency, checkpoint sizes — plugs in as an empirical sampler with no
// conversion.
type Sampler interface {
	Sample(rng *rand.Rand) float64
}

// Const is a degenerate Sampler that always returns its value — the
// hand-set-constant fallback when a run's snapshot lacks a histogram.
type Const float64

// Sample implements Sampler.
func (c Const) Sample(*rand.Rand) float64 { return float64(c) }

// CostModel holds the per-task cost distributions the fleet simulator draws
// from. Build one with DefaultCostModel (hand-set constants in the paper's
// NT3 regime) or Calibrate (fit from a real run's obs snapshot).
type CostModel struct {
	// Eval samples one candidate's end-to-end evaluation latency in
	// seconds (build + transfer + train + checkpoint, as nas.eval.seconds
	// measures it).
	Eval Sampler
	// CheckpointBytes samples the encoded checkpoint size in bytes.
	CheckpointBytes Sampler
	// Dispatch is the serialized per-task cost at the coordinator — the
	// RPC round-trip median in distributed runs.
	Dispatch time.Duration
	// FS is the checkpoint-I/O model, with bandwidths derived from the
	// size and latency histograms when both are present.
	FS FSModel
	// Calibrated and Defaulted record which metrics fed the model and
	// which fields kept hand-set constants — surfaced by replay reports so
	// a prediction's provenance is auditable.
	Calibrated []string
	Defaulted  []string
}

// DefaultCostModel returns hand-set constants in the paper's NT3 regime:
// ~6 s evaluations, ~40 MB checkpoints, a fast local coordinator.
func DefaultCostModel() CostModel {
	return CostModel{
		Eval:            Const(6.0),
		CheckpointBytes: Const(40e6),
		Dispatch:        time.Millisecond,
		FS:              DefaultFS(),
		Defaulted:       []string{"eval", "checkpoint-bytes", "dispatch", "fs"},
	}
}

// Calibrate fits a CostModel from a real run's metrics snapshot, replacing
// each hand-set constant with an empirical sampler wherever the run recorded
// the corresponding histogram:
//
//	nas.eval.seconds              -> Eval
//	checkpoint.store.save.size    -> CheckpointBytes
//	cluster.rpc.seconds (p50)     -> Dispatch
//	size/latency histogram means  -> FS read/write bandwidth
//
// Missing or empty histograms keep the DefaultCostModel constants; the
// Calibrated/Defaulted lists say which is which.
func Calibrate(s *obs.Snapshot) CostModel {
	cm := DefaultCostModel()
	if s == nil {
		return cm
	}
	cm.Calibrated, cm.Defaulted = nil, nil
	hist := func(name string) (obs.HistogramSnapshot, bool) {
		h, ok := s.Histograms[name]
		return h, ok && h.Count > 0
	}
	if h, ok := hist("nas.eval.seconds"); ok {
		cm.Eval = h
		cm.Calibrated = append(cm.Calibrated, "eval")
	} else {
		cm.Defaulted = append(cm.Defaulted, "eval")
	}
	sizes, haveSizes := hist("checkpoint.store.save.size")
	if haveSizes {
		cm.CheckpointBytes = sizes
		cm.Calibrated = append(cm.Calibrated, "checkpoint-bytes")
	} else {
		cm.Defaulted = append(cm.Defaulted, "checkpoint-bytes")
	}
	if h, ok := hist("cluster.rpc.seconds"); ok {
		cm.Dispatch = time.Duration(h.Quantile(0.5) * float64(time.Second))
		cm.Calibrated = append(cm.Calibrated, "dispatch")
	} else {
		cm.Defaulted = append(cm.Defaulted, "dispatch")
	}
	// Effective FS bandwidths: mean bytes per save over mean seconds per
	// save/load. Measured latencies already include real contention, so the
	// calibrated FS is non-serialized per-op cost.
	fsFitted := false
	if haveSizes {
		meanBytes := sizes.Mean()
		if w, ok := hist("checkpoint.store.save.seconds"); ok && w.Mean() > 0 {
			cm.FS.WriteBandwidth = meanBytes / w.Mean()
			fsFitted = true
		}
		if r, ok := hist("checkpoint.store.load.seconds"); ok && r.Mean() > 0 {
			cm.FS.ReadBandwidth = meanBytes / r.Mean()
			fsFitted = true
		}
	}
	if fsFitted {
		cm.FS.Serialized = false
		cm.FS.PerOpLatency = 0
		cm.Calibrated = append(cm.Calibrated, "fs")
	} else {
		cm.Defaulted = append(cm.Defaulted, "fs")
	}
	return cm
}

// Tasks generates a synthetic workload of n tasks by sampling the cost
// model: evaluation durations and checkpoint sizes are independent draws,
// and a transferFrac fraction of tasks load a provider checkpoint first
// (the weight-transfer read path). Deterministic for a seeded rng.
func (cm CostModel) Tasks(n int, transferFrac float64, rng *rand.Rand) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			TrainTime:       time.Duration(cm.Eval.Sample(rng) * float64(time.Second)),
			CheckpointBytes: int64(cm.CheckpointBytes.Sample(rng)),
			LoadParent:      transferFrac > 0 && rng.Float64() < transferFrac,
		}
	}
	return tasks
}

// DurationQuantile returns the q-quantile of ds by nearest-rank on a sorted
// copy — the speculation threshold base in both the simulator and the real
// coordinator (cluster.FaultConfig.SpeculativeQuantile).
func DurationQuantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}
