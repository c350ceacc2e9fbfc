package main

// Every swtnas/internal/* import of the benchmark lives in this file. The
// workloads themselves go through the public swtnas API and the cmd/
// binaries; what needs an internal package is (a) the ledger replay, which
// re-executes a recorded search stage by stage with a span around each
// layer's public function, (b) the dist_tcp_2w coordinator, which has no
// public wrapper, (c) reading obs snapshots, and (d) Kendall τ. A refactor
// that moves or removes one of these (for example cluster.RunDistributed)
// needs a one-file benchmark change first.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"time"

	"swtnas"
	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/cluster"
	"swtnas/internal/core"
	"swtnas/internal/evo"
	"swtnas/internal/nas"
	"swtnas/internal/nn"
	"swtnas/internal/obs"
	"swtnas/internal/parallel"
	"swtnas/internal/resilience"
	"swtnas/internal/search"
	"swtnas/internal/stats"
	"swtnas/internal/trace"
)

func kendallTau(x, y []float64) (float64, error) { return stats.KendallTau(x, y) }

// snapshot is an obs metrics document: a search's Summary.Metrics delta or a
// /debug/metrics scrape of a server or worker process.
type snapshot = obs.Snapshot

// obsSet switches process-wide metrics recording and returns the old state.
func obsSet(on bool) bool { return obs.SetEnabled(on) }

func obsTake() *snapshot { return obs.Take() }

func parseSnapshot(b []byte) (*snapshot, error) {
	s := &snapshot{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("parsing metrics snapshot: %w", err)
	}
	return s, nil
}

// mergeSnapshots sums counters and histograms over several deltas (units of
// one phase, or the two worker processes). Gauges keep the last value.
func mergeSnapshots(ss ...*snapshot) *snapshot {
	out := &snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	for _, s := range ss {
		if s == nil {
			continue
		}
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, h := range s.Histograms {
			cur, ok := out.Histograms[k]
			if !ok || len(cur.Counts) != len(h.Counts) {
				h.Counts = append([]int64(nil), h.Counts...)
				out.Histograms[k] = h
				continue
			}
			if h.Count == 0 {
				continue
			}
			if cur.Count == 0 || h.Min < cur.Min {
				cur.Min = h.Min
			}
			cur.Max = max(cur.Max, h.Max)
			cur.Count += h.Count
			cur.Sum += h.Sum
			for i := range h.Counts {
				cur.Counts[i] += h.Counts[i]
			}
			out.Histograms[k] = cur
		}
	}
	return out
}

// replayCfg names the search a ledger replay re-executes.
type replayCfg struct {
	App           string
	Seed          int64
	DType         string
	Pop, Sample   int
	KernelWorkers int
	// Dir, when set, gives the replay a content-addressed disk store and a
	// journal like the durable workload's; empty keeps checkpoints in memory.
	Dir  string
	Unit int
}

// replayOut is what the replay learned beyond its spans: the score of
// every candidate, and how many of the receivers' tensors LCS matched.
type replayOut struct {
	Scores          map[int]float64
	Matched         int
	ReceiverTensors int
}

// ledgerReplay re-executes a recorded search candidate by candidate,
// mirroring nas.Evaluator.evaluate and the scheduler's journal append, with
// one span around each call into a layer. The recorded completion order is
// kept, so every provider checkpoint exists when its child loads it, and
// every candidate trains from the seed the live run derived for it — the
// replayed scores equal the recorded ones bit for bit.
func ledgerReplay(l *ledger, cfg replayCfg, cands []swtnas.Candidate) (*replayOut, error) {
	u := cfg.Unit
	root := l.begin("search", "nas", -1, u, -1)
	defer l.end(root)

	sp := l.begin("apps.new", "apps", root, u, -1)
	app, err := apps.New(cfg.App, cfg.Seed, apps.Config{})
	l.end(sp)
	if err != nil {
		return nil, err
	}
	if cfg.KernelWorkers > 0 {
		defer parallel.SetWorkers(parallel.SetWorkers(cfg.KernelWorkers))
	}
	var store *checkpoint.CASStore
	var journal *resilience.Journal
	if cfg.Dir != "" {
		sp = l.begin("checkpoint.open", "checkpoint", root, u, -1)
		store, err = checkpoint.NewCASDiskStore(filepath.Join(cfg.Dir, "ckpt"))
		l.end(sp)
		if err != nil {
			return nil, err
		}
		sp = l.begin("resilience.create", "resilience", root, u, -1)
		journal, err = resilience.Create(filepath.Join(cfg.Dir, "search.swtj"), resilience.Header{
			App: app.Name, Scheme: "LCS", Space: app.Space.Name, Seed: cfg.Seed, DataSeed: cfg.Seed,
			Budget: len(cands), Population: cfg.Pop, Sample: cfg.Sample,
		})
		l.end(sp)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
	} else {
		store = checkpoint.NewCASMemStore()
	}
	f32 := cfg.DType == "f32"
	var train32, val32 *nn.DataOf[float32]
	if f32 {
		sp = l.begin("nn.convert_data", "nn", root, u, -1)
		train32, val32 = nn.ConvertData[float32](app.Dataset.Train), nn.ConvertData[float32](app.Dataset.Val)
		l.end(sp)
	}
	strategy := evo.NewRegularizedEvolution(app.Space, cfg.Pop, cfg.Sample)
	propRNG := rand.New(rand.NewSource(cfg.Seed))
	out := &replayOut{Scores: map[int]float64{}}

	for _, c := range cands {
		// The proposal is discarded (the recorded one is replayed); the
		// call is timed on a population fed with the real reports.
		sp = l.begin("evo.propose", "evo", root, u, c.ID)
		strategy.Propose(propRNG)
		l.end(sp)

		cs := l.begin("candidate", "nas", root, u, c.ID)
		rng := rand.New(rand.NewSource(nas.TaskSeed(cfg.Seed, c.ID)))
		sp = l.begin("search.build", "search", cs, u, c.ID)
		net, err := app.Space.Build(search.Arch(c.Arch), rng)
		l.end(sp)
		if err != nil {
			return nil, err
		}
		if c.ParentID >= 0 {
			sp = l.begin("checkpoint.load", "checkpoint", cs, u, c.ID)
			parent, err := store.Load(nas.CandidateID(c.ParentID))
			l.end(sp)
			if err != nil {
				return nil, fmt.Errorf("replay: provider %d of candidate %d: %w", c.ParentID, c.ID, err)
			}
			sp = l.begin("core.transfer", "core", cs, u, c.ID)
			st, err := core.Transfer(core.LCS{}, parent.Sources(), net)
			l.end(sp)
			if err != nil {
				return nil, err
			}
			out.Matched += st.Matched
			out.ReceiverTensors += st.ReceiverLayers
		}
		fitCfg := nn.FitConfig{Epochs: app.PartialEpochs, BatchSize: app.Space.BatchSize, RNG: rng}
		var score float64
		var model *checkpoint.Model
		if f32 {
			sp = l.begin("nn.convert", "nn", cs, u, c.ID)
			net32, err := nn.ConvertNetwork[float32](net)
			if err != nil {
				return nil, err
			}
			loss32, err := nn.ConvertLoss[float32](app.Space.Loss)
			if err != nil {
				return nil, err
			}
			metric32, err := nn.ConvertMetric[float32](app.Space.Metric)
			l.end(sp)
			if err != nil {
				return nil, err
			}
			sp = l.begin("nn.fit", "nn", cs, u, c.ID)
			h, err := nn.Fit(net32, loss32, metric32, nn.NewAdamOf[float32](), train32, val32, fitCfg)
			l.end(sp)
			if err != nil {
				return nil, err
			}
			score = h.FinalScore()
			sp = l.begin("checkpoint.snapshot", "checkpoint", cs, u, c.ID)
			model = checkpoint.FromNetworkOf(c.Arch, score, net32)
			l.end(sp)
		} else {
			sp = l.begin("nn.fit", "nn", cs, u, c.ID)
			h, err := nn.Fit(net, app.Space.Loss, app.Space.Metric, nn.NewAdam(), app.Dataset.Train, app.Dataset.Val, fitCfg)
			l.end(sp)
			if err != nil {
				return nil, err
			}
			score = h.FinalScore()
			sp = l.begin("checkpoint.snapshot", "checkpoint", cs, u, c.ID)
			model = checkpoint.FromNetwork(c.Arch, score, net)
			l.end(sp)
		}
		sp = l.begin("checkpoint.save", "checkpoint", cs, u, c.ID)
		nbytes, err := store.Save(nas.CandidateID(c.ID), model)
		l.end(sp)
		if err != nil {
			return nil, err
		}
		l.end(cs)
		out.Scores[c.ID] = score

		if journal != nil {
			sp = l.begin("resilience.append", "resilience", root, u, c.ID)
			man, err := store.EncodedManifest(nas.CandidateID(c.ID))
			if err == nil {
				err = journal.Append(resilience.EvalRecord{Record: trace.Record{
					ID: c.ID, Arch: c.Arch, Score: score, Params: c.Params, ParentID: c.ParentID,
					TransferCopied: c.TransferredLayers, CheckpointBytes: nbytes,
				}, Manifest: man})
			}
			l.end(sp)
			if err != nil {
				return nil, err
			}
		}
		sp = l.begin("evo.report", "evo", root, u, c.ID)
		strategy.Report(evo.Individual{ID: c.ID, Arch: search.Arch(c.Arch), Score: score, Params: c.Params})
		l.end(sp)
	}
	return out, nil
}

// resumeReplay walks the stages of a journal resume with a span around
// each: dataset regeneration, store reopen, journal scan, and per record
// the manifest adoption and the strategy report.
func resumeReplay(l *ledger, unit int, app string, seed int64, dir string, pop, sample int) error {
	root := l.begin("resume", "nas", -1, unit, -1)
	defer l.end(root)
	sp := l.begin("apps.new", "apps", root, unit, -1)
	a, err := apps.New(app, seed, apps.Config{})
	l.end(sp)
	if err != nil {
		return err
	}
	sp = l.begin("checkpoint.open", "checkpoint", root, unit, -1)
	store, err := checkpoint.NewCASDiskStore(filepath.Join(dir, "ckpt"))
	l.end(sp)
	if err != nil {
		return err
	}
	sp = l.begin("resilience.open", "resilience", root, unit, -1)
	j, rec, err := resilience.Open(filepath.Join(dir, "search.swtj"))
	l.end(sp)
	if err != nil {
		return err
	}
	defer j.Close()
	strategy := evo.NewRegularizedEvolution(a.Space, pop, sample)
	for _, er := range rec.Records {
		r := er.Record
		sp = l.begin("checkpoint.adopt", "checkpoint", root, unit, r.ID)
		err := store.AdoptManifest(nas.CandidateID(r.ID), er.Manifest)
		l.end(sp)
		if err != nil {
			return err
		}
		sp = l.begin("evo.report", "evo", root, unit, r.ID)
		strategy.Report(evo.Individual{ID: r.ID, Arch: search.Arch(r.Arch), Score: r.Score, Params: r.Params})
		l.end(sp)
	}
	return nil
}

// distCfg is one distributed search.
type distCfg struct {
	App         string
	DType       string
	Seed        int64
	Budget      int
	Pop, Sample int
	Outstanding int
}

// coordinator is a cluster.Coordinator serving on a loopback port.
type coordinator struct {
	c      *cluster.Coordinator
	lis    net.Listener
	served chan struct{}
}

func startCoordinator() (*coordinator, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	co := &coordinator{c: cluster.NewCoordinator(), lis: lis, served: make(chan struct{})}
	go func() {
		defer close(co.served)
		_ = co.c.Serve(lis) // returns the listener's close error
	}()
	return co, nil
}

func (co *coordinator) addr() string { return co.lis.Addr().String() }

// distDone is one task completion as the coordinator's caller saw it.
type distDone struct {
	ID int
	At time.Time
}

// run drives one search through the coordinator and returns its candidates
// in completion order, the number of Failed records, and when each task
// completed.
func (co *coordinator) run(cfg distCfg) (cands []swtnas.Candidate, failed int, done []distDone, err error) {
	tr, err := cluster.RunDistributed(co.c, cluster.DistConfig{
		App: cfg.App, DataSeed: cfg.Seed, Matcher: "LCS", DType: cfg.DType, Budget: cfg.Budget,
		Outstanding: cfg.Outstanding, Seed: cfg.Seed, N: cfg.Pop, S: cfg.Sample,
		Progress: func(r trace.Record) { done = append(done, distDone{ID: r.ID, At: time.Now()}) },
	})
	if err != nil {
		return nil, 0, nil, err
	}
	for _, r := range tr.Records {
		if r.Failed {
			failed++
		}
		cands = append(cands, swtnas.Candidate{
			ID: r.ID, Arch: r.Arch, Score: r.Score, Params: r.Params, ParentID: r.ParentID,
			TransferredLayers: r.TransferCopied, TrainTime: r.TrainTime,
			CheckpointBytes: r.CheckpointBytes, CompletedAt: r.CompletedAt,
		})
	}
	return cands, failed, done, nil
}

// stop tells connected workers to exit and closes the listener.
func (co *coordinator) stop() {
	co.c.Shutdown()
	co.lis.Close()
	<-co.served
}

// timeAppsNew records one apps.new span: the dataset generation every
// search, worker and server submission repeats.
func timeAppsNew(l *ledger, app string, seed int64) error {
	sp := l.begin("apps.new", "apps", -1, 0, -1)
	_, err := apps.New(app, seed, apps.Config{})
	l.end(sp)
	return err
}
