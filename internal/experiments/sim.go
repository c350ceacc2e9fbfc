package experiments

import (
	"io"
	"math/rand"
	"time"

	"swtnas/internal/obs"
	"swtnas/internal/sim"
)

// SimRow is one fleet size of the simulator scale study: the weak-scaling
// makespan with and without speculative re-execution, plus the
// coordinator-side congestion measures that explain where scaling breaks.
type SimRow struct {
	Evaluators      int
	Tasks           int
	Makespan        time.Duration // speculation off
	SpecMakespan    time.Duration // speculation on
	Speculated      int
	SpeculationWon  int
	CoordinatorLoad float64
	DispatchLatency time.Duration
	QueueWaitP95    time.Duration
	QueueWaitMax    time.Duration
}

// simFleetSizes is the Sim sweep: 16 -> 4096 simulated GPUs.
var simFleetSizes = []int{16, 64, 256, 1024, 4096}

// Sim runs the calibrated fleet-scale study: calibrate a cost model from a
// real (quick-scale) search's metrics, then weak-scale a synthetic workload
// from 16 to 4096 simulated GPUs — 8 tasks per evaluator, ~3% of them 10x
// stragglers — and report queue-wait blowup, heartbeat-monitor load, and
// what speculative re-execution buys back at each size.
func (s *Suite) Sim(w io.Writer) ([]SimRow, error) {
	line(w, "Sim: calibrated fleet scale study, 16 -> 4096 evaluators (8 tasks each)")

	// Calibrate from a real run: one quick campaign with metrics recording
	// on. Histograms the run doesn't record keep DefaultCostModel constants
	// (Calibrate reports which below).
	prevObs := obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)
	if _, err := s.Campaign(s.Cfg.Apps[0], "LCS"); err != nil {
		return nil, err
	}
	cm := sim.Calibrate(obs.Take())
	line(w, "  cost model: calibrated %v, defaulted %v", cm.Calibrated, cm.Defaulted)

	var rows []SimRow
	for _, evaluators := range simFleetSizes {
		n := 8 * evaluators
		// Same seed per size: the off/on comparison sees identical
		// workloads; across sizes the small fleets replay a prefix-like
		// draw of the big ones.
		rng := rand.New(rand.NewSource(s.Cfg.Seed))
		tasks := cm.Tasks(n, 0.8, rng)
		for i := range tasks {
			if i%32 == 7 { // ~3% stragglers, deterministic
				tasks[i].SlowFactor = 10
			}
		}
		cfg := sim.FleetConfig{
			Evaluators:       evaluators,
			Tasks:            tasks,
			SchedulerLatency: cm.Dispatch,
			HeartbeatEvery:   time.Second,
			HeartbeatCost:    500 * time.Microsecond,
			WriteCheckpoints: true,
			FS:               cm.FS,
		}
		off, err := sim.SimulateFleet(cfg)
		if err != nil {
			return nil, err
		}
		cfg.Speculate = true
		on, err := sim.SimulateFleet(cfg)
		if err != nil {
			return nil, err
		}
		row := SimRow{
			Evaluators:      evaluators,
			Tasks:           n,
			Makespan:        off.Makespan,
			SpecMakespan:    on.Makespan,
			Speculated:      on.Speculated,
			SpeculationWon:  on.SpeculationWon,
			CoordinatorLoad: off.CoordinatorLoad,
			DispatchLatency: off.DispatchLatency,
			QueueWaitP95:    off.QueueWaitP95,
			QueueWaitMax:    off.QueueWaitMax,
		}
		rows = append(rows, row)
		line(w, "  %4d eval %6d tasks: makespan %10s -> %10s with speculation (%d backups, %d won), monitor load %5.1f%%, dispatch %8s, queue wait p95 %8s max %8s",
			row.Evaluators, row.Tasks,
			row.Makespan.Round(time.Millisecond), row.SpecMakespan.Round(time.Millisecond),
			row.Speculated, row.SpeculationWon,
			100*row.CoordinatorLoad, row.DispatchLatency.Round(time.Microsecond),
			row.QueueWaitP95.Round(time.Millisecond), row.QueueWaitMax.Round(time.Millisecond))
	}
	return rows, nil
}
