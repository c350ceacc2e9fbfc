package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"swtnas"
)

// metricDef names one metric; BENCHMARK.json carries the same names with
// their directions and regression bounds (a harness test keeps them equal).
type metricDef struct{ Name, Unit string }

// endToEndDefs are what a user of the system sees, on every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"candidates_per_s", "1/s"},
	{"search_s", "s"},
	{"cpu_s_per_candidate", "s"},
	{"peak_rss_mb", "MB"},
	{"store_bytes_per_candidate", "bytes"},
	{"best_score", "score"},
	{"rank_tau_vs_ref", "tau"},
}

// perLayerDefs are the single-layer metrics of the traced run, named
// <module>.<name>. A layer that does no work on a workload reports zero.
var perLayerDefs = []metricDef{
	{"evo.propose_us_p50", "us"}, {"search.build_ms_p50", "ms"},
	{"core.transfer_ms_p50", "ms"}, {"core.transfer_attempts", "count"}, {"core.transferred", "count"}, {"core.matched_share", "share"},
	{"nn.fit_ms_p50", "ms"}, {"nn.fit_share", "share"}, {"nn.forward_s", "s"}, {"nn.backward_s", "s"}, {"nn.optimizer_s", "s"},
	{"nn.batches", "count"}, {"nn.convert_ms_p50", "ms"},
	{"tensor.gemm_s", "s"}, {"tensor.gemm_calls", "count"}, {"tensor.gemm_gflop", "gflop"}, {"tensor.gemm_gflop_per_s", "gflop/s"},
	{"parallel.for_calls", "count"}, {"parallel.offloaded_share", "share"},
	{"checkpoint.snapshot_ms_p50", "ms"}, {"checkpoint.encode_ms_p50", "ms"}, {"checkpoint.encode_mb_per_s", "MB/s"},
	{"checkpoint.decode_ms_p50", "ms"}, {"checkpoint.save_ms_p50", "ms"}, {"checkpoint.save_ms_tail", "ms"}, {"checkpoint.save_share", "share"},
	{"checkpoint.load_ms_p50", "ms"}, {"checkpoint.bytes_raw", "bytes"}, {"checkpoint.bytes_written", "bytes"}, {"checkpoint.dedup_share", "share"},
	{"checkpoint.open_ms", "ms"}, {"checkpoint.adopt_ms_p50", "ms"},
	{"resilience.append_ms_p50", "ms"}, {"resilience.append_ms_tail", "ms"}, {"resilience.append_share", "share"},
	{"resilience.bytes_per_record", "bytes"}, {"resilience.open_ms", "ms"},
	{"nas.eval_ms_p50", "ms"}, {"nas.eval_ms_tail", "ms"}, {"nas.evaluator_util", "share"}, {"nas.queue_wait_ms_tail", "ms"},
	{"nas.pool_submitted", "count"}, {"nas.pool_completed", "count"}, {"nas.pool_requeued", "count"}, {"nas.pool_failed", "count"},
	{"nas.pool_fairness", "ratio"}, {"nas.unattributed_share", "share"}, {"nas.replay_vs_e2e", "ratio"},
	{"cluster.overhead_ms_per_task", "ms"}, {"cluster.task_ms_p50", "ms"}, {"cluster.rpc_ms_p50", "ms"}, {"cluster.rpc_calls", "count"},
	{"cluster.rpc_errors", "count"}, {"cluster.requeued", "count"}, {"cluster.duplicates", "count"}, {"cluster.bytes_per_task", "bytes"},
	{"cluster.worker_util", "share"},
	{"serve.submit_ms_p50", "ms"}, {"serve.status_ms_p50", "ms"}, {"serve.topk_ms_p50", "ms"}, {"serve.delete_ms_p50", "ms"},
	{"serve.first_event_ms_p50", "ms"}, {"serve.events_per_search", "count"}, {"serve.http_errors", "count"},
	{"apps.new_ms", "ms"}, {"obs.overhead_pct", "%"}, {"sim.replay_residual_pct", "%"},
	// The end-to-end timings of the traced run's recording-off phase as
	// measured, and the speed factor the scorecard divides them by.
	{"raw.candidates_per_s", "1/s"}, {"raw.search_s", "s"}, {"raw.cpu_s_per_candidate", "s"}, {"raw.setup_s", "s"}, {"cal.speed_factor", "ratio"},
}

// checker counts attempted and failed operations and checks.
type checker struct {
	attempted, failed int
	msgs              []string
}

func (c *checker) ok(cond bool, format string, args ...any) {
	c.attempted++
	if !cond {
		c.failed++
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
}

// rank orders candidates the way every leaderboard of the system does:
// score descending, id ascending.
func rank(cands []swtnas.Candidate, k int) []swtnas.Candidate {
	s := append([]swtnas.Candidate(nil), cands...)
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Score != s[j].Score {
			return s[i].Score > s[j].Score
		}
		return s[i].ID < s[j].ID
	})
	return s[:min(k, len(s))]
}

// sameTop reports whether two leaderboards agree bit for bit on ids, scores
// and architectures.
func sameTop(a, b []swtnas.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !sameCandidate(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameCandidate(a, b swtnas.Candidate) bool {
	return math.Float64bits(a.Score) == math.Float64bits(b.Score) && fmt.Sprint(a.Arch) == fmt.Sprint(b.Arch)
}

// topConsistent reports whether a leaderboard is the top of the candidates
// a unit streamed: the same scores in the same order as ranking them gives,
// every entry one of the streamed candidates. Ids may differ among ties
// (the library breaks ties by completion order, rank by id).
func topConsistent(top, cands []swtnas.Candidate) bool {
	want := rank(cands, len(top))
	if len(top) != min(topK, len(cands)) {
		return false
	}
	byID := map[int]swtnas.Candidate{}
	for _, c := range cands {
		byID[c.ID] = c
	}
	for i, t := range top {
		c, ok := byID[t.ID]
		if !ok || !sameCandidate(t, c) || math.Float64bits(t.Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// checkUnits runs the in-command correctness checks on every unit. Each
// candidate and each HTTP call counts as an attempted operation.
func checkUnits(chk *checker, s spec, units []*unit) {
	for _, u := range units {
		at := fmt.Sprintf("%s unit %s%d", s.Name, u.Client, u.Index)
		chk.attempted += len(u.Cands) + len(u.Calls)
		chk.failed += u.Failed + u.HTTPErrors
		chk.ok(u.Failed == 0, "%s: %d failed candidates or a non-done terminal state", at, u.Failed)
		chk.ok(len(u.Cands) == s.Budget, "%s: %d candidates for a budget of %d", at, len(u.Cands), s.Budget)
		pos := map[int]int{}
		for i, c := range u.Cands {
			if _, dup := pos[c.ID]; dup {
				chk.ok(false, "%s: candidate id %d reported twice", at, c.ID)
			}
			pos[c.ID] = i
		}
		ordered := true
		for i, c := range u.Cands {
			if p, ok := pos[c.ParentID]; c.ParentID >= 0 && (!ok || p >= i) {
				ordered = false
			}
		}
		chk.ok(ordered, "%s: a candidate completed before its parent", at)
		if u.TopK != nil {
			chk.ok(topConsistent(u.TopK, u.Cands), "%s: top-%d does not match the candidates streamed", at, topK)
		}
		if u.WantTop != nil {
			chk.ok(sameTop(u.TopK, u.WantTop), "%s: resumed top-%d differs from the journaled run's", at, topK)
		}
		if len(u.Calls) > 0 { // a search followed over SSE
			chk.ok(len(u.EventTimes) == s.Budget, "%s: %d SSE candidate events for a budget of %d", at, len(u.EventTimes), s.Budget)
		}
	}
}

func bestScore(cands []swtnas.Candidate) float64 {
	best := math.Inf(-1)
	for _, c := range cands {
		best = max(best, c.Score)
	}
	return best
}

// entryKey names a pool entry: the client and the search seed.
type entryKey struct {
	Client string
	Seed   int64
}

// perEntry groups a per-unit quantity by pool entry and returns each
// entry's median: a pass that hit a hiccup moves one sample of three, not
// the result.
func perEntry(units []*unit, f func(*unit) float64) map[entryKey]float64 {
	by := map[entryKey][]float64{}
	for _, u := range units {
		k := entryKey{u.Client, u.Seed}
		by[k] = append(by[k], f(u))
	}
	out := make(map[entryKey]float64, len(by))
	for k, xs := range by {
		out[k] = median(xs)
	}
	return out
}

// endToEnd derives the end-to-end metrics of a phase run with recording
// off. Timings are taken per pool entry (median over the passes) and then
// combined over the pool, so every entry weighs the same however many passes
// ran. Each appears twice: in reference seconds (divided by the box's speed
// factor around the unit, see calibrate.go) under the scorecard's names, and
// as measured under raw.*.
func endToEnd(vals map[string]float64, dists map[string]dist, setups, rawSetups []float64, ph *phaseOut, selfRSSKB int64) {
	cands := 0
	var storeBytes int64
	var walls, refWalls, speeds []float64
	var unitRSS int64
	for _, u := range ph.Units {
		cands += len(u.Cands) - u.Failed
		storeBytes += u.StoreBytes
		walls, refWalls = append(walls, u.wall().Seconds()), append(refWalls, u.wall().Seconds()/u.Speed)
		speeds = append(speeds, u.Speed)
		unitRSS = max(unitRSS, u.ChildRSSKB)
	}
	n := float64(max(cands, 1))
	done := perEntry(ph.Units, func(u *unit) float64 { return float64(len(u.Cands) - u.Failed) })
	best := perEntry(ph.Units, func(u *unit) float64 { return bestScore(u.Cands) })
	for _, v := range []struct {
		prefix string
		speed  func(*unit) float64
	}{
		{"", func(u *unit) float64 { return u.Speed }},
		{"raw.", func(*unit) float64 { return 1 }},
	} {
		wall := perEntry(ph.Units, func(u *unit) float64 { return u.wall().Seconds() / v.speed(u) })
		cpu := perEntry(ph.Units, func(u *unit) float64 { return (u.SelfCPU + u.ChildCPU).Seconds() / v.speed(u) })
		// A client runs its pool serially; clients start a pass together
		// and the pass ends with the slower one.
		clientTime := map[string]float64{}
		var passTime, meanWall, poolCPU, poolCands float64
		for k, w := range wall {
			clientTime[k.Client] += w
			passTime = max(passTime, clientTime[k.Client])
			meanWall += w / float64(len(wall))
			poolCPU += cpu[k]
			poolCands += done[k]
		}
		vals[v.prefix+"candidates_per_s"] = poolCands / passTime
		vals[v.prefix+"search_s"] = meanWall
		vals[v.prefix+"cpu_s_per_candidate"] = poolCPU / max(poolCands, 1)
	}
	vals["setup_s"], vals["raw.setup_s"] = median(setups), median(rawSetups)
	vals["cal.speed_factor"] = median(speeds)
	childRSS := float64(ph.ChildRSSKB)
	if len(ph.PassRSSKB) > 0 {
		var peaks []float64
		for _, kb := range ph.PassRSSKB {
			peaks = append(peaks, float64(kb))
		}
		childRSS = median(peaks)
	}
	vals["peak_rss_mb"] = (float64(selfRSSKB+unitRSS) + childRSS) / 1024
	vals["store_bytes_per_candidate"] = float64(storeBytes) / n
	for _, b := range best {
		vals["best_score"] += b / float64(len(best))
	}
	dists["setup_s"] = summarize(setups)
	dists["search_s"], dists["raw.search_s"] = summarize(refWalls), summarize(walls)
}

// Rank-fidelity panel: a Budget 32 / Population 32 baseline search draws
// all 32 architectures at random from the panel seed (the population never
// fills, so no proposal depends on a score) and trains each from scratch.
// The committed reference holds the float64 scores; τ compares the ranking
// the workload's dtype produces today against it. The panel trains on half
// the default training split: every run pays for it outside the timed
// phase, and rank fidelity does not need the full split.
const (
	panelSeed = 20210907
	panelSize = 32
)

var panelTrainN = map[string]int{"cifar10": 256, "nt3": 80, "uno": 256}

//go:embed ref/*.json
var refFS embed.FS

type panelRef struct {
	App    string    `json:"app"`
	Seed   int64     `json:"seed"`
	DType  string    `json:"dtype"`
	Archs  [][]int   `json:"archs"`
	Scores []float64 `json:"scores"`
}

func runPanel(app, dtype string) (*panelRef, error) {
	res, err := swtnas.Search(swtnas.SearchOptions{App: app, Scheme: "baseline", DType: dtype, Budget: panelSize,
		PopulationSize: panelSize, SampleSize: panelSize, Seed: panelSeed, TrainN: panelTrainN[app], Workers: 1, KernelWorkers: 2})
	if err != nil {
		return nil, err
	}
	p := &panelRef{App: app, Seed: panelSeed, DType: dtype, Archs: make([][]int, panelSize), Scores: make([]float64, panelSize)}
	for _, c := range res.Candidates {
		p.Archs[c.ID], p.Scores[c.ID] = c.Arch, c.Score
	}
	return p, nil
}

func panelTau(chk *checker, s spec) (float64, error) {
	b, err := refFS.ReadFile("ref/panel_" + s.App + ".json")
	if err != nil {
		return 0, err
	}
	var ref panelRef
	if err := json.Unmarshal(b, &ref); err != nil {
		return 0, err
	}
	got, err := runPanel(s.App, s.DType)
	if err != nil {
		return 0, err
	}
	chk.ok(fmt.Sprint(got.Archs) == fmt.Sprint(ref.Archs), "%s: the panel's architectures drifted from ref/panel_%s.json", s.Name, s.App)
	return kendallTau(got.Scores, ref.Scores)
}

func writePanelRefs(dir string) error {
	for app := range panelTrainN {
		p, err := runPanel(app, "f64")
		if err != nil {
			return err
		}
		b, err := json.Marshal(p)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "panel_"+app+".json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// series collects a named timing series into vals (median, optional tail)
// and dists.
func series(vals map[string]float64, dists map[string]dist, name string, xs []float64, tail string) {
	if len(xs) == 0 {
		return
	}
	d := summarize(xs)
	vals[name], dists[name] = d.P50, d
	if tail != "" {
		vals[tail] = d.Tail
	}
}

func us(ds []time.Duration) []float64 {
	out := ms(ds)
	for i := range out {
		out[i] *= 1000
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// poolTime is the time one pass over the pool takes, in reference seconds:
// the sum over the pool's entries of each entry's median wall time.
func poolTime(units []*unit) float64 {
	var t float64
	for _, w := range perEntry(units, func(u *unit) float64 { return u.wall().Seconds() / u.Speed }) {
		t += w
	}
	return t
}

// perLayer derives the per-layer metrics of a traced run: from phase B's
// obs deltas, from the client-side timings, and from a ledger replay of
// phase B's units that runs until the deadline (at least one unit).
func perLayer(vals map[string]float64, dists map[string]dist, chk *checker, cfg runConfig, rc *runCtx, wl workload, a, b *phaseOut, deadline time.Time) error {
	s := cfg.spec
	slots := float64(max(s.Workers, 1))
	if s.Name == "server_2tenant" {
		slots = 2
	}
	var snaps []*snapshot
	var evalMS, waitMS []float64
	var evalTotal time.Duration
	candsA, candsB := 0, 0
	attempts, transferred := 0, 0
	for _, u := range a.Units {
		candsA += len(u.Cands)
	}
	for _, u := range b.Units {
		candsB += len(u.Cands)
		snaps = append(snaps, u.Snap)
		for _, c := range u.Cands {
			if c.Resumed {
				continue // journaled timings of another process
			}
			if c.EvalTime > 0 {
				evalMS = append(evalMS, float64(c.EvalTime)/float64(time.Millisecond))
				waitMS = append(waitMS, float64(c.QueueWait)/float64(time.Millisecond))
				evalTotal += c.EvalTime
			}
			if c.ParentID >= 0 {
				attempts++
				if c.TransferredLayers > 0 {
					transferred++
				}
			}
		}
	}
	snap := mergeSnapshots(append(snaps, b.Snap)...)
	first := snap // counts of the first unit repeat exactly for one seed
	if len(b.Units) > 0 && b.Units[0].Snap != nil {
		first = b.Units[0].Snap
	}
	hsum := func(name string) float64 { return snap.Histograms[name].Sum }
	cnt := func(name string) float64 { return float64(snap.Counters[name]) }

	// Both phases run the same pool; in reference seconds, so that the box
	// drifting between them is not booked as overhead.
	vals["obs.overhead_pct"] = 100 * (ratio(poolTime(b.Units), poolTime(a.Units)) - 1)
	vals["core.transfer_attempts"], vals["core.transferred"] = float64(attempts), float64(transferred)
	series(vals, dists, "nas.eval_ms_p50", evalMS, "nas.eval_ms_tail")
	if len(waitMS) > 0 {
		d := summarize(waitMS)
		vals["nas.queue_wait_ms_tail"], dists["nas.queue_wait_ms_tail"] = d.Tail, d
	}
	vals["nas.evaluator_util"] = ratio(evalTotal.Seconds(), b.Wall.Seconds()*slots)

	vals["nn.forward_s"], vals["nn.backward_s"], vals["nn.optimizer_s"] = hsum("nn.fit.forward.seconds"), hsum("nn.fit.backward.seconds"), hsum("nn.fit.optimizer.seconds")
	vals["nn.batches"] = float64(first.Counters["nn.fit.batches"])
	vals["nn.fit_share"] = ratio(hsum("nn.fit.epoch.seconds"), b.Wall.Seconds()*slots)
	vals["tensor.gemm_s"] = hsum("tensor.gemm.seconds")
	vals["tensor.gemm_calls"] = float64(first.Counters["tensor.gemm.calls"])
	vals["tensor.gemm_gflop"] = float64(first.Counters["tensor.gemm.flops"]) / 1e9
	vals["tensor.gemm_gflop_per_s"] = ratio(cnt("tensor.gemm.flops")/1e9, hsum("tensor.gemm.seconds"))
	vals["parallel.for_calls"] = float64(first.Counters["parallel.for.calls"])
	vals["parallel.offloaded_share"] = ratio(cnt("parallel.shards.offloaded"), cnt("parallel.shards.offloaded")+cnt("parallel.shards.inline"))
	vals["checkpoint.encode_ms_p50"] = 1e3 * snap.Histograms["checkpoint.encode.seconds"].Quantile(0.5)
	vals["checkpoint.encode_mb_per_s"] = ratio(cnt("checkpoint.encode.bytes")/1e6, hsum("checkpoint.encode.seconds"))
	vals["checkpoint.decode_ms_p50"] = 1e3 * snap.Histograms["checkpoint.decode.seconds"].Quantile(0.5)
	vals["checkpoint.save_ms_p50"] = 1e3 * snap.Histograms["checkpoint.store.save.seconds"].Quantile(0.5)
	saves := int(snap.Histograms["checkpoint.store.save.seconds"].Count)
	vals["checkpoint.save_ms_tail"] = 1e3 * snap.Histograms["checkpoint.store.save.seconds"].Quantile(float64(tailPercentile(saves))/100)
	vals["checkpoint.load_ms_p50"] = 1e3 * snap.Histograms["checkpoint.store.load.seconds"].Quantile(0.5)
	vals["checkpoint.bytes_raw"], vals["checkpoint.bytes_written"] = cnt("checkpoint.cas.bytes.raw"), cnt("checkpoint.cas.bytes.written")
	vals["checkpoint.dedup_share"] = ratio(cnt("checkpoint.cas.blobs.deduped"), cnt("checkpoint.cas.blobs.deduped")+cnt("checkpoint.cas.blobs.stored"))
	vals["resilience.bytes_per_record"] = ratio(cnt("resilience.journal.bytes"), cnt("resilience.journal.appends"))
	vals["nas.pool_submitted"], vals["nas.pool_completed"] = cnt("nas.pool.tasks.submitted"), cnt("nas.pool.tasks.completed")
	vals["nas.pool_requeued"], vals["nas.pool_failed"] = cnt("nas.pool.tasks.requeued"), cnt("nas.pool.tasks.failed")

	switch w := wl.(type) {
	case *serverWL:
		serveLayer(vals, dists, b)
	case *distWL:
		tasks := float64(max(candsB, 1))
		exec := hsum("cluster.exec.seconds")
		vals["cluster.overhead_ms_per_task"] = 1e3 * (b.Wall.Seconds()*slots - exec) / tasks
		vals["cluster.worker_util"] = ratio(exec, b.Wall.Seconds()*slots)
		vals["cluster.rpc_ms_p50"] = 1e3 * snap.Histograms["cluster.rpc.seconds"].Quantile(0.5)
		vals["cluster.rpc_calls"], vals["cluster.rpc_errors"] = cnt("cluster.rpc.calls"), cnt("cluster.rpc.errors")
		vals["cluster.requeued"], vals["cluster.duplicates"] = cnt("cluster.tasks.requeued"), cnt("cluster.results.duplicate")
		var wire int64
		for _, u := range b.Units {
			size := map[int]int64{}
			for _, c := range u.Cands {
				size[c.ID] = c.CheckpointBytes
			}
			for _, c := range u.Cands {
				wire += c.CheckpointBytes + size[c.ParentID] // result up, provider down
			}
		}
		vals["cluster.bytes_per_task"] = float64(wire) / tasks
		series(vals, dists, "cluster.task_ms_p50", ms(rc.led.byName()["cluster.task"]), "")
	case *resumeWL:
		for i := 0; i == 0 || (i < len(b.Units) && time.Now().Before(deadline)); i++ {
			if err := resumeReplay(rc.led, i, s.App, w.seed, w.dir, s.Pop, s.Sample); err != nil {
				return err
			}
		}
	case *localWL:
		var replayed, e2e time.Duration
		out := &replayOut{}
		for i := 0; i == 0 || (i < len(b.Units) && time.Now().Before(deadline)); i++ {
			u := b.Units[i]
			dir, err := w.scratch(rc)
			if err != nil {
				return err
			}
			before, speed := len(rc.led.spans), rc.cal.factor()
			o, err := ledgerReplay(rc.led, replayCfg{App: s.App, Seed: u.Seed, DType: s.DType, Pop: s.Pop, Sample: s.Sample,
				KernelWorkers: s.KernelW, Dir: dir, Unit: i}, u.Cands)
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
			speed = rc.unitSpeed(speed, rc.cal.factor())
			same := true
			for _, c := range u.Cands {
				e2e += time.Duration(float64(c.EvalTime) / u.Speed)
				same = same && math.Float64bits(o.Scores[c.ID]) == math.Float64bits(c.Score)
			}
			chk.ok(same, "%s unit %d: the ledger replay's scores differ from the recorded ones", s.Name, i)
			for _, sp := range rc.led.spans[before:] {
				if sp.Name == "candidate" {
					replayed += time.Duration(float64(sp.dur()) / speed)
				}
			}
			out.Matched += o.Matched
			out.ReceiverTensors += o.ReceiverTensors
			if i == 0 && u.TraceJSON != nil {
				if vals["sim.replay_residual_pct"], err = simResidual(cfg, u); err != nil {
					return err
				}
			}
		}
		vals["core.matched_share"] = ratio(float64(out.Matched), float64(out.ReceiverTensors))
		vals["nas.replay_vs_e2e"] = ratio(replayed.Seconds(), e2e.Seconds())
	}
	if _, ok := rc.led.byName()["apps.new"]; !ok {
		if err := timeAppsNew(rc.led, s.App, s.entrySeed(0, 0)); err != nil {
			return err
		}
	}
	ledgerLayer(vals, dists, rc.led)
	return nil
}

// ledgerLayer derives the span-based metrics: per-call medians, the shares
// of the replayed search a layer's spans cover, and what the candidate
// spans leave unattributed.
func ledgerLayer(vals map[string]float64, dists map[string]dist, l *ledger) {
	by := l.byName()
	series(vals, dists, "evo.propose_us_p50", us(by["evo.propose"]), "")
	series(vals, dists, "search.build_ms_p50", ms(by["search.build"]), "")
	series(vals, dists, "core.transfer_ms_p50", ms(by["core.transfer"]), "")
	series(vals, dists, "nn.fit_ms_p50", ms(by["nn.fit"]), "")
	series(vals, dists, "nn.convert_ms_p50", ms(by["nn.convert"]), "")
	series(vals, dists, "checkpoint.snapshot_ms_p50", ms(by["checkpoint.snapshot"]), "")
	series(vals, dists, "checkpoint.save_ms_p50", ms(by["checkpoint.save"]), "checkpoint.save_ms_tail")
	series(vals, dists, "checkpoint.load_ms_p50", ms(by["checkpoint.load"]), "")
	series(vals, dists, "checkpoint.open_ms", ms(by["checkpoint.open"]), "")
	series(vals, dists, "checkpoint.adopt_ms_p50", ms(by["checkpoint.adopt"]), "")
	series(vals, dists, "resilience.append_ms_p50", ms(by["resilience.append"]), "resilience.append_ms_tail")
	series(vals, dists, "resilience.open_ms", ms(by["resilience.open"]), "")
	series(vals, dists, "apps.new_ms", ms(by["apps.new"]), "")
	if root := sumDur(by["search"]).Seconds(); root > 0 && len(by["candidate"]) > 0 {
		vals["nn.fit_share"] = sumDur(by["nn.fit"]).Seconds() / root
		vals["checkpoint.save_share"] = sumDur(by["checkpoint.save"]).Seconds() / root
		vals["resilience.append_share"] = sumDur(by["resilience.append"]).Seconds() / root
		var self, total time.Duration
		selfs := selfTimes(l.spans)
		for i, sp := range l.spans {
			if sp.Name == "candidate" {
				self, total = self+selfs[i], total+sp.dur()
			}
		}
		vals["nas.unattributed_share"] = ratio(self.Seconds(), total.Seconds())
	}
}

// serveLayer derives the client-side metrics of server_2tenant.
func serveLayer(vals map[string]float64, dists map[string]dist, b *phaseOut) {
	calls := map[string][]time.Duration{}
	var first []time.Duration
	events, errors := 0, 0
	var lo, hi time.Time // the window in which both clients are active
	span := map[string][2]time.Time{}
	for _, u := range b.Units {
		for _, c := range u.Calls {
			calls[c.Name] = append(calls[c.Name], c.End.Sub(c.Start))
		}
		first = append(first, u.FirstEvent)
		events += u.Events
		errors += u.HTTPErrors
		w, ok := span[u.Client]
		if !ok || u.Start.Before(w[0]) {
			w[0] = u.Start
		}
		if u.End.After(w[1]) {
			w[1] = u.End
		}
		span[u.Client] = w
	}
	for _, w := range span {
		if lo.IsZero() || w[0].After(lo) {
			lo = w[0]
		}
		if hi.IsZero() || w[1].Before(hi) {
			hi = w[1]
		}
	}
	rates := map[string]float64{}
	for _, u := range b.Units {
		for _, t := range u.EventTimes {
			if !t.Before(lo) && !t.After(hi) {
				rates[u.Client]++
			}
		}
	}
	if len(rates) == len(tenants) {
		mn, mx := math.Inf(1), 0.0
		for _, r := range rates {
			mn, mx = min(mn, r), max(mx, r)
		}
		vals["nas.pool_fairness"] = ratio(mn, mx)
	}
	series(vals, dists, "serve.submit_ms_p50", ms(calls["submit"]), "")
	series(vals, dists, "serve.status_ms_p50", ms(calls["status"]), "")
	series(vals, dists, "serve.topk_ms_p50", ms(calls["topk"]), "")
	series(vals, dists, "serve.delete_ms_p50", ms(calls["delete"]), "")
	series(vals, dists, "serve.first_event_ms_p50", ms(first), "")
	vals["serve.events_per_search"] = ratio(float64(events), float64(len(b.Units)))
	vals["serve.http_errors"] = float64(errors)
}

// simResidual feeds the unit's trace and metrics delta to the existing
// swtnas-trace replay and returns |predicted − measured| / measured
// makespan in percent — the simulator's ground-truth check.
func simResidual(cfg runConfig, u *unit) (float64, error) {
	tracePath := filepath.Join(cfg.work, "sim-trace.json")
	metricsPath := filepath.Join(cfg.work, "sim-metrics.json")
	defer os.Remove(tracePath)
	defer os.Remove(metricsPath)
	if err := os.WriteFile(tracePath, u.TraceJSON, 0o644); err != nil {
		return 0, err
	}
	mb, err := json.Marshal(u.Snap)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(metricsPath, mb, 0o644); err != nil {
		return 0, err
	}
	cmd := exec.Command(filepath.Join(cfg.bin, "swtnas-trace"), "replay", "-json", "-workers", fmt.Sprint(cfg.spec.Workers), "-metrics", metricsPath, tracePath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outb, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("swtnas-trace replay: %v: %s", err, stderr.String())
	}
	var rep struct{ Error float64 }
	if err := json.Unmarshal(outb, &rep); err != nil {
		return 0, fmt.Errorf("swtnas-trace replay output: %w", err)
	}
	return 100 * rep.Error, nil
}
