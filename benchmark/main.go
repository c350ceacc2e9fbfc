// Command benchmark is the repository's performance benchmark: five named
// workloads, an end-to-end scorecard and a per-layer ledger.
//
// Each workload is a closed loop of whole searches ("units") measured for a
// fixed time: conv_local and durable_nt3 call swtnas.Search in this process,
// resume_nt3 resumes a complete journal, server_2tenant drives the
// swtnas-server binary with two HTTP clients, and dist_tcp_2w drives two
// swtnas-worker processes through a coordinator. End-to-end numbers are
// taken with metrics recording off. A traced run (-trace 1) repeats the
// same units with recording on, re-executes the recorded search stage by
// stage with a span around every call into a layer (the ledger replay), and
// reports per-layer metrics and its own overhead. Every run checks its
// outputs: candidate counts, unique ids, parent-before-child, bit-identical
// resume, SSE event counts, no failed distributed task.
//
// Usage (the driver's form, one workload per run):
//
//	bash benchmark/run.sh --workload conv_local --seed 1 --seconds 10 --trace 0
//
// or, with the Go build cache of the user:
//
//	go run ./benchmark -seed 1 -out out.json            # all five workloads
//	go run ./benchmark -seed 1 -trace 1 -out out.json   # plus ledgers and span files
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md in this directory
// for the workload and metric glossary and BENCHMARK.json at the repository
// root for units, directions and regression bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver-facing last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run of one workload learned; -out writes it.
type report struct {
	Workload    string            `json:"workload"`
	Why         string            `json:"why"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Env         environment       `json:"environment"`
	Units       int               `json:"units"`
	Candidates  int               `json:"candidates"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailedShare float64           `json:"failed_share"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	// Raw holds the end-to-end timings as measured (the scorecard's are in
	// reference seconds) and the speed factor between the two.
	Raw map[string]float64 `json:"raw,omitempty"`
	// Dists holds every timing series under the percentile rule: sample
	// count, median, and the highest percentile with ≥10 samples beyond it.
	Dists    map[string]dist `json:"distributions"`
	SpanFile string          `json:"span_file,omitempty"`
}

// runConfig is one run of one workload.
type runConfig struct {
	spec    spec
	seed    int64
	seconds float64
	traced  bool
	setups  int    // how many times to set up (median reported)
	panel   bool   // run the rank-fidelity panel (untraced runs)
	work    string // scratch root inside the checkout
	bin     string // built binaries
	spans   string // span file path (traced runs)
	cal     *calibrator
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all five, one after the other)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds      = flag.Float64("seconds", 10, "length of the measured phase")
		trace        = flag.Int("trace", 0, "1: traced run (per-layer metrics, span file); 0: end-to-end metrics")
		out          = flag.String("out", "", "write the full report (JSON) to this file")
		build        = flag.String("build-dir", ".bench_build", "directory for binaries, scratch data and span files")
		writeRef     = flag.Bool("write-ref", false, "regenerate benchmark/ref/panel_<app>.json (f64 reference scores) and exit")
	)
	flag.Parse()
	stopChildrenOnSignal()
	if err := run(*workloadName, *seed, *seconds, *trace != 0, *out, *build, *writeRef); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out, build string, writeRef bool) error {
	if writeRef {
		return writePanelRefs(filepath.Join("benchmark", "ref"))
	}
	var todo []spec
	for _, s := range specs(false) {
		if name == "" || s.Name == name {
			todo = append(todo, s)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	bin := filepath.Join(build, "bin")
	if err := buildBinaries(bin); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	cal := newCalibrator()
	var reports []*report
	final := result{Metrics: map[string]metric{}}
	for _, s := range todo {
		cfg := runConfig{spec: s, seed: seed, seconds: seconds, traced: traced, setups: 3, panel: !traced,
			work: work, bin: bin, cal: cal, spans: filepath.Join(build, fmt.Sprintf("spans-%s-seed%d.jsonl", s.Name, seed))}
		if traced {
			cfg.setups = 1 // the traced run reports no set-up time of its own
		}
		rep, err := runWorkload(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		reports = append(reports, rep)
		printReport(rep)
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		for k, v := range rep.Metrics {
			if len(todo) > 1 {
				k = s.Name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	final.Correct = final.Failed == 0
	if out != "" {
		b, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !final.Correct {
		return fmt.Errorf("%d of %d checks and operations failed", final.Failed, final.Attempted)
	}
	return nil
}

// buildBinaries builds the programs under test from the checkout's source.
func buildBinaries(bin string) error {
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", abs+string(filepath.Separator),
		"swtnas/cmd/swtnas-server", "swtnas/cmd/swtnas-worker", "swtnas/cmd/swtnas-trace")
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building binaries under test: %v: %s", err, b)
	}
	return nil
}

// runWorkload sets the workload up, measures it and derives its metrics.
func runWorkload(cfg runConfig) (*report, error) {
	rep := &report{Workload: cfg.spec.Name, Why: cfg.spec.Why, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Env: recordEnvironment(cfg.work), Metrics: map[string]metric{}, Dists: map[string]dist{}}
	rc := &runCtx{seed: cfg.seed, dir: cfg.work, bin: cfg.bin, cal: cfg.cal, sens: cfg.spec.Sens}
	wl := newWorkload(cfg.spec)
	chk := &checker{}

	// Idempotent, and before the first set-up: a set-up that fails halfway
	// (a server that started but whose warm-up search failed) is torn down too.
	defer wl.teardown()

	var setups, rawSetups []float64 // in reference seconds, and as measured
	speed := rc.cal.factor()
	for k := 0; k < cfg.setups; k++ {
		if k > 0 {
			wl.teardown()
		}
		t := time.Now()
		if err := wl.setup(rc); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		raw, after := time.Since(t).Seconds(), rc.cal.factor()
		setups, rawSetups = append(setups, 2*raw/(speed+after)), append(rawSetups, raw)
		speed = after
	}

	vals := map[string]float64{}
	// timed ends a phase at the pass boundary nearest to limit.
	timed := func(limit time.Duration) stopper {
		start := time.Now()
		return func(passes int) bool {
			elapsed := time.Since(start)
			return elapsed+elapsed/time.Duration(2*passes) >= limit
		}
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.traced {
		ph, err := wl.measure(rc, timed(budget))
		if err != nil {
			return nil, err
		}
		selfRSS := rssSelfKB() // before the panel trains in this process
		ph.ChildRSSKB = wl.teardown()
		checkUnits(chk, cfg.spec, ph.Units)
		tau := 0.0
		if cfg.panel {
			if tau, err = panelTau(chk, cfg.spec); err != nil {
				return nil, err
			}
		}
		endToEnd(vals, rep.Dists, setups, rawSetups, ph, selfRSS)
		vals["rank_tau_vs_ref"] = tau
		fill(rep, endToEndDefs, vals, ph.Units)
	} else {
		// Phase A: metrics recording off. Phase B: the same units with
		// recording on. Then the ledger replay of phase B's units.
		a, err := wl.measure(rc, timed(budget*3/10))
		if err != nil {
			return nil, err
		}
		endToEnd(vals, rep.Dists, setups, rawSetups, a, rssSelfKB())
		rc.traced, rc.led = true, newLedger()
		was := obsSet(true)
		b, err := wl.measure(rc, func(passes int) bool { return passes >= a.Passes })
		obsSet(was)
		if err != nil {
			return nil, err
		}
		checkUnits(chk, cfg.spec, b.Units)
		deadline := time.Now().Add(budget * 4 / 10)
		if err := perLayer(vals, rep.Dists, chk, cfg, rc, wl, a, b, deadline); err != nil {
			return nil, err
		}
		wl.teardown()
		fill(rep, perLayerDefs, vals, b.Units)
		if err := rc.led.writeJSONL(cfg.spans); err != nil {
			return nil, err
		}
		rep.SpanFile = cfg.spans
	}
	rep.Attempted, rep.Failed, rep.Failures = chk.attempted, chk.failed, chk.msgs
	rep.FailedShare = float64(chk.failed) / float64(max(chk.attempted, 1))
	return rep, nil
}

// fill copies the defined metrics out of vals (absent per-layer metrics are
// zero: the layer did no work on this workload).
func fill(rep *report, defs []metricDef, vals map[string]float64, units []*unit) {
	for _, d := range defs {
		rep.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	rep.Raw = map[string]float64{}
	for k, v := range vals {
		if _, ok := rep.Metrics[k]; !ok && (strings.HasPrefix(k, "raw.") || strings.HasPrefix(k, "cal.")) {
			rep.Raw[k] = v
		}
	}
	rep.Units = len(units)
	for _, u := range units {
		rep.Candidates += len(u.Cands)
	}
}

// printReport prints every metric by name with its unit, and the sample
// count and tail percentile of every timing series.
func printReport(rep *report) {
	mode := "end-to-end"
	if rep.Traced {
		mode = "per-layer"
	}
	fmt.Printf("== %s  seed %d  %s  (%d units, %d candidates, %s on %s, %d cpus, load %.2f)\n",
		rep.Workload, rep.Seed, mode, rep.Units, rep.Candidates, rep.Env.GoVersion, rep.Env.FSType, rep.Env.NProc, rep.Env.Load1)
	for _, k := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[k]
		extra := ""
		if d, ok := rep.Dists[k]; ok {
			extra = fmt.Sprintf("   n=%d p50=%.4g p%d=%.4g", d.N, d.P50, d.TailPct, d.Tail)
		}
		fmt.Printf("  %-34s %14.6g %-8s%s\n", k, m.Value, m.Unit, extra)
	}
	for _, k := range sortedKeys(rep.Raw) {
		fmt.Printf("  %-34s %14.6g\n", k, rep.Raw[k])
	}
	fmt.Printf("  %-34s %14.6g %-8s   %d failed of %d attempted\n", "failed_share", rep.FailedShare, "share", rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Println("  FAILED:", f)
	}
	if rep.SpanFile != "" {
		fmt.Println("  spans:", rep.SpanFile)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
