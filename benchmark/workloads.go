package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"swtnas"
)

// spec sizes one workload: a fixed pool of Pool searches ("units") that the
// measured phase runs back to back, pass after pass.
//
// A search's cost follows its trajectory: with the search or the data seed
// drawn from -seed, candidates per second moved by ±50% between seeds on
// conv_local, which no 10 s run can average out. So the trajectories are
// pinned: the pool's search seeds derive from the workload and the pool
// index alone, and -seed decides the order in which the pool is run. Every
// phase runs whole passes, so each entry weighs the same in every metric.
//
// The full sizes are the issue's shrunk (budgets 320/240/120/24/200 to
// 24/16/12/12/12, populations 32/32/32/8/32 to 6/4/4/4/4) so that a pass
// takes 2–3 s and a run measures four to seven: the reference box stalls for
// seconds at a time, and a per-entry median needs that many passes to shrug
// a stall off. Smoke sizes are what the harness test runs.
type spec struct {
	Name string
	Why  string
	// App and DType also pick the rank-fidelity panel.
	App, DType  string
	Pool        int
	Budget      int
	Pop, Sample int
	Workers     int
	KernelW     int
	// Warm is the uncounted warm-up search's budget, run during set-up.
	Warm int
	// Sens is how closely the workload's unit times follow the box's speed
	// factor: the slope of log time on log factor over 40–60 runs at seed
	// state, rounded (see calibrate.go). Zero means 1.
	Sens float64
}

func specs(smoke bool) []spec {
	ss := []spec{
		{Name: "conv_local", App: "cifar10", DType: "f32", Pool: 2, Budget: 24, Pop: 6, Sample: 3, Workers: 1, KernelW: 2, Warm: 8,
			Why: "in-memory cifar10/f32 searches on one evaluator: nn, tensor and parallel do ~90% of the work, storage <2%; kernel gains show here, storage gains must not"},
		{Name: "durable_nt3", App: "nt3", DType: "f64", Pool: 2, Budget: 16, Pop: 4, Sample: 2, Workers: 2, KernelW: 1, Warm: 8, Sens: 0.8,
			Why: "nt3/f64 on two evaluators with a disk CAS store and a journal: the paper's Fig 10/11 checkpoint-I/O case, an fsync per blob and per append; serial f64 kernels"},
		{Name: "resume_nt3", App: "nt3", DType: "f64", Pool: 1, Budget: 12, Pop: 4, Sample: 2, Workers: 1, KernelW: 2, Sens: 0.6,
			Why: "back-to-back Resume of a complete nt3 journal: store reopen, journal scan, manifest adoption, zero training; a write-side win that costs reads shows here"},
		{Name: "server_2tenant", App: "uno", DType: "f32", Pool: 2, Budget: 12, Pop: 4, Sample: 2, Workers: 1, Warm: 4, Sens: 0.8,
			Why: "swtnas-server under two closed-loop HTTP clients (uno and mnist, f32): many short searches make per-search fixed costs and the shared pool a large share"},
		{Name: "dist_tcp_2w", App: "uno", DType: "f64", Pool: 2, Budget: 12, Pop: 4, Sample: 2, Workers: 2, KernelW: 1, Warm: 4, Sens: 0.8,
			Why: "a coordinator and two swtnas-worker processes over loopback TCP: the only workload with gob RPC and checkpoint encode/decode between evaluations"},
	}
	if smoke {
		for i := range ss {
			ss[i].Pool, ss[i].Budget, ss[i].Pop, ss[i].Sample = 1, 6, 3, 2
			if ss[i].Warm > 0 {
				ss[i].Warm = 2
			}
		}
	}
	return ss
}

// entrySeed is the search seed of a client's pool entry j: a constant of
// the workload, never zero, distinct across workloads and clients.
func (s spec) entrySeed(client, j int) int64 {
	var h int64
	for _, c := range s.Name {
		h = h*31 + int64(c)
	}
	return h%9000*1000 + int64(client)*100 + int64(j) + 1
}

// unitSeed is the search seed of a client's i-th unit under run seed seed:
// the pool in the order the seed rotates it to.
func (s spec) unitSeed(seed int64, client, i int) int64 {
	rot := int((seed%int64(s.Pool) + int64(s.Pool)) % int64(s.Pool))
	return s.entrySeed(client, (i+rot)%s.Pool)
}

// unit is one closed-loop iteration: a whole search as its caller saw it.
type unit struct {
	Client     string
	Index      int
	Seed       int64
	Start, End time.Time
	Cands      []swtnas.Candidate // completion order
	Failed     int                // Failed records (dist) or a non-done terminal state
	StoreBytes int64              // bytes at rest when the search ended
	Speed      float64            // the box's speed factor around the unit (see calibrate.go)
	SelfCPU    time.Duration      // this process's CPU over the unit (single-client workloads)
	ChildCPU   time.Duration      // CPU of processes that lived only for this unit
	ChildRSSKB int64              // summed peak RSS of those processes
	TopK       []swtnas.Candidate // leaderboard as the workload's own API returned it
	WantTop    []swtnas.Candidate // resume_nt3: the journaled run's leaderboard
	Snap       *snapshot          // obs delta, traced phases only
	TraceJSON  []byte             // conv_local unit 0, traced phases only
	// Client-side timings (server_2tenant): per HTTP call, and submit to
	// first SSE event. Done holds task completion instants (dist_tcp_2w).
	Calls      []httpCall
	FirstEvent time.Duration
	Events     int
	EventTimes []time.Time
	HTTPErrors int
	Done       []distDone
}

func (u *unit) wall() time.Duration { return u.End.Sub(u.Start) }

// httpCall is one client-side request: name, and when it started and ended.
type httpCall struct {
	Name       string
	Start, End time.Time
}

// runCtx is what a workload needs from the run.
type runCtx struct {
	seed   int64
	dir    string // scratch directory inside the checkout
	bin    string // directory holding swtnas-server, swtnas-worker, swtnas-trace
	traced bool   // obs recording on, spans recorded into led
	led    *ledger
	cal    *calibrator // nil leaves times raw (harness tests)
	sens   float64     // the spec's Sens
}

// unitSpeed is the factor a unit's times are divided by, from the box's
// speed factors measured before and after it.
func (rc *runCtx) unitSpeed(before, after float64) float64 {
	f := (before + after) / 2
	if rc.sens > 0 {
		f = math.Pow(f, rc.sens)
	}
	return f
}

// stopper says, after passes whole passes over the pool, whether the phase
// ends there. Every phase runs at least one pass.
type stopper func(passes int) bool

// phaseOut is one measured phase.
type phaseOut struct {
	Units  []*unit
	Passes int
	Wall   time.Duration // time the clients were busy, calibration excluded
	// ChildRSSKB is the peak RSS of a long-lived process under test other
	// than the benchmark's own (the server), known once it has ended.
	ChildRSSKB int64
	// PassRSSKB is that process's peak RSS over each pass, where the kernel
	// lets the high-water mark be reset between passes. A peak is a maximum
	// and the server's moved by a quarter between runs; the median over the
	// passes' peaks is what the scorecard reports.
	PassRSSKB []int64
	Snap      *snapshot // scrape delta of long-lived processes (traced)
}

// workload is one of the five named workloads. setup may run again after
// teardown: the run sets up several times and reports the median.
type workload interface {
	setup(rc *runCtx) error
	measure(rc *runCtx, stop stopper) (*phaseOut, error)
	// teardown returns the peak RSS of long-lived child processes it ended.
	teardown() (childRSSKB int64)
}

func newWorkload(s spec) workload {
	switch s.Name {
	case "conv_local", "durable_nt3":
		return &localWL{spec: s}
	case "resume_nt3":
		return &resumeWL{spec: s}
	case "server_2tenant":
		return &serverWL{spec: s}
	case "dist_tcp_2w":
		return &distWL{spec: s}
	}
	return nil
}

// loop runs the pool pass after pass on one client until stop says so. The
// process's CPU time over a unit is that unit's, and the box's speed is
// measured between units.
func loop(rc *runCtx, pool int, stop stopper, run func(i int) (*unit, error)) (*phaseOut, error) {
	out := &phaseOut{}
	speed, at := rc.cal.factor(), time.Now()
	for i := 0; i < pool || i%pool != 0 || !stop(i/pool); i++ {
		cpu0 := cpuSelf()
		u, err := run(i)
		if err != nil {
			return nil, err
		}
		u.SelfCPU, u.Speed = cpuSelf()-cpu0, rc.unitSpeed(speed, speed)
		// Units shorter than half a second share a measurement instead of
		// paying for one each.
		if time.Since(at) >= 500*time.Millisecond {
			after := rc.cal.factor()
			u.Speed, speed, at = rc.unitSpeed(speed, after), after, time.Now()
		}
		out.Units = append(out.Units, u)
		out.Wall += u.wall()
		if (i+1)%pool == 0 {
			out.Passes++
		}
	}
	return out, nil
}

// searchOptions are the options of one local search of the spec.
func (s spec) searchOptions(seed int64, budget int, dir string) swtnas.SearchOptions {
	opt := swtnas.SearchOptions{
		App: s.App, Scheme: "LCS", DType: s.DType, Budget: budget, Seed: seed,
		PopulationSize: s.Pop, SampleSize: s.Sample, Workers: s.Workers, KernelWorkers: s.KernelW,
	}
	if dir != "" {
		opt.CheckpointDir = filepath.Join(dir, "ckpt")
		opt.JournalPath = filepath.Join(dir, "search.swtj")
	}
	return opt
}

// localWL is conv_local and durable_nt3: swtnas.Search in this process.
type localWL struct {
	spec spec
	n    int // scratch directory counter
}

func (w *localWL) durable() bool { return w.spec.Name == "durable_nt3" }

func (w *localWL) scratch(rc *runCtx) (string, error) {
	if !w.durable() {
		return "", nil
	}
	w.n++
	dir := filepath.Join(rc.dir, fmt.Sprintf("%s-%03d", w.spec.Name, w.n))
	return dir, os.MkdirAll(dir, 0o755)
}

func (w *localWL) setup(rc *runCtx) error {
	dir, err := w.scratch(rc)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	_, err = swtnas.Search(w.spec.searchOptions(w.spec.entrySeed(0, 0), w.spec.Warm, dir))
	return err
}

func (w *localWL) teardown() int64 { return 0 }

func (w *localWL) measure(rc *runCtx, stop stopper) (*phaseOut, error) {
	return loop(rc, w.spec.Pool, stop, func(i int) (*unit, error) {
		dir, err := w.scratch(rc)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		u := &unit{Index: i, Seed: w.spec.unitSeed(rc.seed, 0, i)}
		opt := w.spec.searchOptions(u.Seed, w.spec.Budget, dir)
		opt.Metrics = rc.traced
		u.Start = time.Now()
		res, err := swtnas.Search(opt)
		u.End = time.Now()
		if err != nil {
			return nil, err
		}
		u.Cands, u.TopK = res.Candidates, res.Best(topK)
		if w.durable() {
			u.StoreBytes = dirSize(dir)
		} else {
			for _, c := range res.Candidates {
				u.StoreBytes += c.CheckpointBytes
			}
		}
		if rc.traced {
			if u.Snap, err = parseSnapshot(res.Summary.Metrics); err != nil {
				return nil, err
			}
			if i == 0 && !w.durable() {
				var buf bytes.Buffer
				if err := res.WriteTrace(&buf); err != nil {
					return nil, err
				}
				u.TraceJSON = buf.Bytes()
			}
		}
		return u, nil
	})
}

// topK is the leaderboard depth the checks compare.
const topK = 5

// resumeWL is resume_nt3: set-up journals one search, each unit resumes it.
type resumeWL struct {
	spec spec
	n    int
	dir  string
	seed int64
	orig []swtnas.Candidate // the journaled run's top-K
}

func (w *resumeWL) setup(rc *runCtx) error {
	w.n++
	w.dir = filepath.Join(rc.dir, fmt.Sprintf("resume-%03d", w.n))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	w.seed = w.spec.entrySeed(0, 0)
	res, err := swtnas.Search(w.spec.searchOptions(w.seed, w.spec.Budget, w.dir))
	if err != nil {
		return err
	}
	w.orig = res.Best(topK)
	_, err = w.resume(false) // warm-up: page cache and lazy set-up
	return err
}

func (w *resumeWL) teardown() int64 {
	os.RemoveAll(w.dir)
	return 0
}

func (w *resumeWL) resume(metrics bool) (*swtnas.Result, error) {
	opt := w.spec.searchOptions(w.seed, w.spec.Budget, w.dir)
	opt.Resume, opt.Metrics = true, metrics
	return swtnas.Search(opt)
}

func (w *resumeWL) measure(rc *runCtx, stop stopper) (*phaseOut, error) {
	stored := dirSize(w.dir)
	return loop(rc, w.spec.Pool, stop, func(i int) (*unit, error) {
		u := &unit{Index: i, Seed: w.seed, StoreBytes: stored}
		u.Start = time.Now()
		res, err := w.resume(rc.traced)
		u.End = time.Now()
		if err != nil {
			return nil, err
		}
		u.Cands, u.TopK, u.WantTop = res.Candidates, res.Best(topK), w.orig
		for _, c := range res.Candidates {
			if !c.Resumed {
				u.Failed++ // a complete journal leaves nothing to evaluate
			}
		}
		if rc.traced {
			if u.Snap, err = parseSnapshot(res.Summary.Metrics); err != nil {
				return nil, err
			}
		}
		return u, nil
	})
}

// serverWL is server_2tenant: the swtnas-server binary under two
// closed-loop HTTP clients, one per tenant.
type serverWL struct {
	spec    spec
	n       int
	srv     *child
	base    string
	dataDir string
	hc      *http.Client
}

var tenants = []struct{ Name, App string }{{"a", "uno"}, {"b", "mnist"}}

func (w *serverWL) setup(rc *runCtx) error {
	w.n++
	w.dataDir = filepath.Join(rc.dir, fmt.Sprintf("server-%03d", w.n))
	port, err := freePort()
	if err != nil {
		return err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	w.srv, err = startChild(filepath.Join(rc.bin, "swtnas-server"), "-addr", addr, "-data-dir", w.dataDir, "-pool-workers", "2")
	if err != nil {
		return err
	}
	w.base = "http://" + addr
	w.hc = &http.Client{}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := w.hc.Get(w.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			srv := w.srv
			w.teardown()
			return fmt.Errorf("swtnas-server not healthy after 10s: %v: %s", err, srv.stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for ci, t := range tenants {
		u, err := w.search(nil, ci, t.Name, t.App, w.spec.entrySeed(ci, 0), 0, w.spec.Warm)
		if err != nil {
			return err
		}
		if u.Failed > 0 || u.HTTPErrors > 0 {
			return fmt.Errorf("server warm-up search for tenant %s failed", t.Name)
		}
	}
	return nil
}

func (w *serverWL) teardown() int64 {
	if w.srv == nil {
		return 0
	}
	w.hc.CloseIdleConnections()
	_, rssKB := w.srv.stop(syscall.SIGTERM)
	w.srv = nil
	os.RemoveAll(w.dataDir)
	return rssKB
}

// submitBody is the POST /v1/searches body of one unit — the generated
// input the server receives.
func (s spec) submitBody(tenant, app string, seed int64, budget int) []byte {
	b, _ := json.Marshal(map[string]any{ // plain values always marshal
		"tenant": tenant, "app": app, "scheme": "LCS", "dtype": s.DType, "budget": budget,
		"seed": seed, "population": s.Pop, "sample": s.Sample,
	})
	return b
}

// call performs one request and reports its latency; non-2xx replies count
// as HTTP errors on the unit.
func (w *serverWL) call(u *unit, name, method, url string, body []byte) ([]byte, error) {
	start := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	u.Calls = append(u.Calls, httpCall{name, start, time.Now()})
	if resp.StatusCode/100 != 2 {
		u.HTTPErrors++
		return b, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, err
}

// search is one unit: submit, follow the event stream to the terminal
// status, fetch status and top-K, delete.
func (w *serverWL) search(led *ledger, ci int, tenant, app string, seed int64, i, budget int) (*unit, error) {
	u := &unit{Client: tenant, Index: i, Seed: seed}
	u.Start = time.Now()
	b, err := w.call(u, "submit", "POST", w.base+"/v1/searches", w.spec.submitBody(tenant, app, seed, budget))
	if err != nil {
		return nil, err
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(b, &sub); err != nil {
		return nil, err
	}
	url := w.base + "/v1/searches/" + sub.ID

	evStart := time.Now()
	resp, err := w.hc.Get(url + "/events")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET events: %s", resp.Status)
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Kind      string
			Candidate *swtnas.Candidate
			Status    *struct{ State string }
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("decoding SSE event: %w", err)
		}
		now := time.Now()
		if u.Events == 0 {
			u.FirstEvent = now.Sub(u.Start)
		}
		u.Events++
		switch ev.Kind {
		case "candidate":
			u.Cands = append(u.Cands, *ev.Candidate)
			u.EventTimes = append(u.EventTimes, now)
		case "status":
			state = ev.Status.State
		}
	}
	resp.Body.Close()
	u.End = time.Now()
	u.Calls = append(u.Calls, httpCall{"events", evStart, u.End})
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if state != "done" {
		u.Failed++
	}
	for _, c := range u.Cands {
		u.StoreBytes += c.CheckpointBytes
	}

	if _, err := w.call(u, "status", "GET", url, nil); err != nil {
		return nil, err
	}
	b, err = w.call(u, "topk", "GET", fmt.Sprintf("%s/topk?n=%d", url, topK), nil)
	if err != nil {
		return nil, err
	}
	var top struct{ Candidates []swtnas.Candidate }
	if err := json.Unmarshal(b, &top); err != nil {
		return nil, err
	}
	u.TopK = top.Candidates
	if _, err := w.call(u, "delete", "DELETE", url, nil); err != nil {
		return nil, err
	}
	if led != nil {
		id := ci*10_000 + i
		root := led.add("search", "serve", -1, id, -1, u.Start, u.Calls[len(u.Calls)-1].End)
		for _, c := range u.Calls {
			led.add("serve."+c.Name, "serve", root, id, -1, c.Start, c.End)
		}
	}
	return u, nil
}

// scrape fetches a /debug/metrics document.
func scrape(hc *http.Client, url string) (*snapshot, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseSnapshot(b)
}

// measure runs passes: in each, both tenants start together and each runs
// its pool back to back; the pass ends when both are done. Between passes
// the server is idle, so the box's speed can be measured without seeing the
// workload's own load; the server's CPU time over the pass is split over
// the pass's units by their candidates.
func (w *serverWL) measure(rc *runCtx, stop stopper) (*phaseOut, error) {
	out := &phaseOut{}
	var before *snapshot
	if rc.traced {
		var err error
		if before, err = scrape(w.hc, w.base+"/debug/metrics"); err != nil {
			return nil, err
		}
	}
	speed := rc.cal.factor()
	w.srv.periodPeakKB() // the warm-up's peak is not the first pass's
	for pass := 0; pass == 0 || !stop(pass); pass++ {
		cpu0, start := w.srv.cpu(), time.Now()
		var wg sync.WaitGroup
		units := make([][]*unit, len(tenants))
		errs := make([]error, len(tenants))
		for ci, t := range tenants {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < w.spec.Pool && errs[ci] == nil; j++ {
					i := pass*w.spec.Pool + j
					var u *unit
					u, errs[ci] = w.search(rc.led, ci, t.Name, t.App, w.spec.unitSeed(rc.seed, ci, i), i, w.spec.Budget)
					units[ci] = append(units[ci], u)
				}
			}()
		}
		wg.Wait()
		out.Wall += time.Since(start)
		cpu := w.srv.cpu() - cpu0
		if kb := w.srv.periodPeakKB(); kb > 0 {
			out.PassRSSKB = append(out.PassRSSKB, kb)
		}
		after := rc.cal.factor()
		cands := 0
		for ci := range tenants {
			if errs[ci] != nil {
				return nil, errs[ci]
			}
			for _, u := range units[ci] {
				cands += len(u.Cands)
			}
		}
		for ci := range tenants {
			for _, u := range units[ci] {
				u.Speed = rc.unitSpeed(speed, after)
				u.ChildCPU = cpu * time.Duration(len(u.Cands)) / time.Duration(max(cands, 1))
			}
			out.Units = append(out.Units, units[ci]...)
		}
		speed = after
		out.Passes++
	}
	if rc.traced {
		after, err := scrape(w.hc, w.base+"/debug/metrics")
		if err != nil {
			return nil, err
		}
		out.Snap = after.Delta(before)
	}
	return out, nil
}

// distWL is dist_tcp_2w: a coordinator in this process and two
// swtnas-worker processes per search.
type distWL struct {
	spec spec
}

func (w *distWL) setup(rc *runCtx) error {
	u, err := w.unit(rc, w.spec.entrySeed(0, 0), -1, w.spec.Warm)
	if err == nil && u.Failed > 0 {
		err = fmt.Errorf("dist warm-up had %d failed candidates", u.Failed)
	}
	return err
}

func (w *distWL) teardown() int64 { return 0 }

func (w *distWL) unit(rc *runCtx, seed int64, i, budget int) (*unit, error) {
	co, err := startCoordinator()
	if err != nil {
		return nil, err
	}
	traced := rc.traced && i >= 0
	var workers []*child
	u, err := w.search(rc, co, &workers, traced, seed, i, budget)
	co.stop()
	for _, c := range workers {
		cpu, rss := c.stop(nil) // workers exit on the coordinator's shutdown task
		if u != nil {
			u.ChildCPU, u.ChildRSSKB = u.ChildCPU+cpu, u.ChildRSSKB+rss
		}
	}
	return u, err
}

// search starts the workers (appending each to *workers, so the caller can
// stop whatever was started), runs one search through the coordinator and,
// when traced, scrapes the workers' metrics before they are shut down.
func (w *distWL) search(rc *runCtx, co *coordinator, workers *[]*child, traced bool, seed int64, i, budget int) (*unit, error) {
	var urls []string
	for k := 0; k < w.spec.Workers; k++ {
		args := []string{"-addr", co.addr(), "-id", fmt.Sprintf("w%d", k), "-kernel-workers", fmt.Sprint(w.spec.KernelW)}
		if traced {
			port, err := freePort()
			if err != nil {
				return nil, err
			}
			addr := fmt.Sprintf("127.0.0.1:%d", port)
			args, urls = append(args, "-metrics-addr", addr), append(urls, "http://"+addr+"/debug/metrics")
		}
		c, err := startChild(filepath.Join(rc.bin, "swtnas-worker"), args...)
		if err != nil {
			return nil, err
		}
		*workers = append(*workers, c)
	}
	u := &unit{Index: i, Seed: seed}
	var err error
	u.Start = time.Now()
	u.Cands, u.Failed, u.Done, err = co.run(distCfg{
		App: w.spec.App, DType: w.spec.DType, Seed: seed, Budget: budget,
		Pop: w.spec.Pop, Sample: w.spec.Sample, Outstanding: w.spec.Workers,
	})
	u.End = time.Now()
	if err != nil {
		return nil, err
	}
	for _, c := range u.Cands {
		u.StoreBytes += c.CheckpointBytes
	}
	if !traced {
		return u, nil
	}
	var snaps []*snapshot
	for _, url := range urls {
		s, err := scrape(http.DefaultClient, url)
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, s)
	}
	u.Snap = mergeSnapshots(snaps...)
	// Task k was issued when the (k - outstanding)-th completion came in
	// (the first ones at the start): the loop issues one task per
	// completion, with ids in issue order.
	root := rc.led.add("search", "cluster", -1, i, -1, u.Start, u.End)
	for _, d := range u.Done {
		issued := u.Start
		if k := d.ID - w.spec.Workers; k >= 0 && k < len(u.Done) {
			issued = u.Done[k].At
		}
		rc.led.add("cluster.task", "cluster", root, i, d.ID, issued, d.At)
	}
	return u, nil
}

func (w *distWL) measure(rc *runCtx, stop stopper) (*phaseOut, error) {
	var before *snapshot
	if rc.traced {
		before = obsTake()
	}
	out, err := loop(rc, w.spec.Pool, stop, func(i int) (*unit, error) {
		return w.unit(rc, w.spec.unitSeed(rc.seed, 0, i), i, w.spec.Budget)
	})
	if err == nil && rc.traced {
		out.Snap = obsTake().Delta(before) // coordinator-side counters
	}
	return out, err
}
