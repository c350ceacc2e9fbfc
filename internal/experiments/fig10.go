package experiments

import (
	"io"
	"slices"
	"time"

	"swtnas/internal/sim"
	"swtnas/internal/stats"
)

// Fig10Row is one bar of Figure 10: the simulated candidate-estimation time
// for 400 models on a given GPU count.
type Fig10Row struct {
	App      string
	Scheme   string
	GPUs     int
	Makespan time.Duration
	Overhead float64 // fraction of busy time spent on checkpoint I/O
}

// fig10SimTasks converts a measured trace into 400 simulator tasks with
// train times and checkpoint sizes rescaled so the NT3 workload matches the
// paper's reported regime (~6 s training, ~40 MB checkpoints); all other
// apps keep their measured ratios to NT3. This preserves the quantity that
// drives Fig 10's shape: checkpoint I/O cost relative to training time.
func (s *Suite) fig10SimTasks(appName, scheme string, timeScale, byteScale float64) ([]sim.Task, error) {
	c, err := s.Campaign(appName, scheme)
	if err != nil {
		return nil, err
	}
	recs := c.Traces[0].Records
	const want = 400 // paper: 400 candidate evaluations
	tasks := make([]sim.Task, want)
	for i := range tasks {
		r := recs[i%len(recs)]
		tasks[i] = sim.Task{
			TrainTime:       time.Duration(float64(r.TrainTime) * timeScale),
			CheckpointBytes: int64(float64(r.CheckpointBytes) * byteScale),
			LoadParent:      scheme != "baseline" && r.ParentID >= 0,
		}
	}
	return tasks, nil
}

// fig10Anchors computes the NT3 rescaling factors. When NT3 is not among
// the configured apps, measured values are used unscaled.
func (s *Suite) fig10Anchors() (timeScale, byteScale float64, err error) {
	timeScale, byteScale = 1, 1
	if !slices.Contains(s.Cfg.Apps, "nt3") {
		return timeScale, byteScale, nil
	}
	c, err := s.Campaign("nt3", "LCS")
	if err != nil {
		return 0, 0, err
	}
	var times, sizes []float64
	for _, r := range c.Traces[0].Records {
		times = append(times, float64(r.TrainTime))
		sizes = append(sizes, float64(r.CheckpointBytes))
	}
	if m := stats.Mean(times); m > 0 {
		timeScale = float64(6*time.Second) / m // paper: NT3 trains ~6 s
	}
	if m := stats.Mean(sizes); m > 0 {
		byteScale = 40e6 / m // paper Fig 11: NT3 checkpoints ~40 MB
	}
	return timeScale, byteScale, nil
}

// fig10FS models the paper's storage behaviour: the parallel FS itself has
// headroom (no cross-GPU queueing), but the effective read path goes through
// the Ray object store, whose churn the paper blames for NT3's ~4 s
// checkpoint loads — captured as a low effective read bandwidth so a 40 MB
// checkpoint costs ~4 s to load.
func fig10FS() sim.FSModel {
	return sim.FSModel{
		WriteBandwidth: 200e6,
		ReadBandwidth:  10e6,
		PerOpLatency:   50 * time.Millisecond,
		Serialized:     false,
	}
}

// Fig10 reproduces Figure 10: scalability of the candidate-estimation phase
// for 8/16/32 GPUs, per scheme, on the discrete-event cluster simulator fed
// with measured per-candidate training times and checkpoint sizes.
func (s *Suite) Fig10(w io.Writer) ([]Fig10Row, error) {
	line(w, "Fig 10: simulated candidate-estimation time for 400 models on 8/16/32 GPUs")
	timeScale, byteScale, err := s.fig10Anchors()
	if err != nil {
		return nil, err
	}
	var rows []Fig10Row
	for _, name := range s.Cfg.Apps {
		for _, scheme := range Schemes() {
			tasks, err := s.fig10SimTasks(name, scheme, timeScale, byteScale)
			if err != nil {
				return nil, err
			}
			matchOverhead := time.Duration(0)
			switch scheme {
			case "LP":
				matchOverhead = 10 * time.Millisecond
			case "LCS":
				// Paper Section VIII-E: at most 150 ms.
				matchOverhead = 100 * time.Millisecond
			}
			for _, gpus := range []int{8, 16, 32} {
				res, err := sim.SimulateFleet(sim.FleetConfig{
					Evaluators:       gpus,
					Tasks:            tasks,
					WriteCheckpoints: scheme != "baseline",
					MatchOverhead:    matchOverhead,
					SchedulerLatency: 250 * time.Millisecond,
					FS:               fig10FS(),
				})
				if err != nil {
					return nil, err
				}
				row := Fig10Row{App: name, Scheme: scheme, GPUs: gpus,
					Makespan: res.Makespan, Overhead: res.OverheadFraction()}
				rows = append(rows, row)
				line(w, "  %-8s %-8s %2d GPUs: %10s (I/O overhead %4.1f%%)",
					row.App, row.Scheme, row.GPUs, row.Makespan.Round(time.Second), 100*row.Overhead)
			}
		}
	}
	return rows, nil
}
