package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	// parent 0..100; children 10..30 and 20..50 overlap (merged: 10..50),
	// child 60..70 apart, child 90..120 clipped to the parent's end.
	spans := []span{
		{Name: "parent", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 10, EndNS: 30, Parent: 0},
		{Name: "b", StartNS: 20, EndNS: 50, Parent: 0},
		{Name: "c", StartNS: 60, EndNS: 70, Parent: 0},
		{Name: "d", StartNS: 90, EndNS: 120, Parent: 0},
		{Name: "grandchild", StartNS: 12, EndNS: 18, Parent: 1},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10 - 10, 20 - 6, 30, 10, 30, 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	var l *ledger // a nil ledger records nothing and never panics
	l.end(l.begin("x", "y", -1, 0, 0))
	if n := len(l.byName()); n != 0 {
		t.Fatalf("nil ledger holds %d series", n)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input, 0..100
	}
	if d := summarize(xs); d.N != 101 || d.P50 != 50 || d.TailPct != 90 || d.Tail != 90 {
		t.Errorf("summarize = %+v", d)
	}
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	for _, s := range specs(false) {
		seen := map[int64]bool{}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < s.Pool; i++ {
				k := pass*s.Pool + i
				a, b := s.searchOptions(s.unitSeed(7, 0, k), s.Budget, "d"), s.searchOptions(s.unitSeed(7, 0, k), s.Budget, "d")
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: seed 7 unit %d generated two different inputs", s.Name, k)
				}
				if string(s.submitBody("a", "uno", a.Seed, s.Budget)) != string(s.submitBody("a", "uno", b.Seed, s.Budget)) {
					t.Errorf("%s: submit bodies differ", s.Name)
				}
				if a.Seed == 0 {
					t.Errorf("%s: zero search seed", s.Name)
				}
				if pass == 0 {
					seen[a.Seed] = true
				} else if !seen[a.Seed] {
					t.Errorf("%s: pass 2 runs a search pass 1 did not", s.Name)
				}
			}
		}
		if len(seen) != s.Pool {
			t.Errorf("%s: one pass covers %d of %d pool entries", s.Name, len(seen), s.Pool)
		}
		if s.Pool > 1 && s.unitSeed(1, 0, 0) == s.unitSeed(2, 0, 0) {
			t.Errorf("%s: seeds 1 and 2 start the pool at the same entry", s.Name)
		}
		if s.unitSeed(1, 0, 0) == s.unitSeed(1, 1, 0) {
			t.Errorf("%s: two clients share a search seed", s.Name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the command in step:
// same workloads, same metric names and units, names the driver accepts.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var got, whys []string
	for _, w := range bj.Workloads {
		got, whys = append(got, w.Name), append(whys, w.Why)
		if !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	var want, wantWhys []string
	for _, s := range specs(false) {
		want, wantWhys = append(want, s.Name), append(wantWhys, s.Why)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(whys, wantWhys) {
		t.Errorf("workloads %v, command runs %v (or their whys differ)", got, want)
	}
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %+v: bad name, unit or direction", m)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound must be in (0, 0.25]", m.Name)
		}
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %+v: bad name, unit or direction", m)
		}
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("end_to_end %v\ncommand prints %v", e2e, endToEndDefs)
	}
	if !reflect.DeepEqual(layer, perLayerDefs) {
		t.Errorf("per_layer %v\ncommand prints %v", layer, perLayerDefs)
	}
	if len(layer) > 128 || len(e2e) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(e2e), len(layer))
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) || !reflect.DeepEqual(bj.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("paths %v command %v", bj.Paths, bj.Command)
	}
}

// TestSmokeEveryWorkload runs each workload at Budget 6 — once traced,
// which covers both measured phases, the checks, the ledger replay and the
// span file — so a refactor that breaks the benchmark fails go test ./...
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")
	if err := buildBinaries(bin); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs(true) {
		t.Run(s.Name, func(t *testing.T) { smoke(t, s, dir, bin) })
	}
}

func smoke(t *testing.T, s spec, dir, bin string) {
	cfg := runConfig{spec: s, seed: 1, seconds: 0.01, setups: 1, work: dir, bin: bin}
	if s.Name == "conv_local" {
		rep, err := runWorkload(cfg) // the end-to-end path, without the panel
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range endToEndDefs {
			if m, ok := rep.Metrics[d.Name]; !ok || (m.Value == 0 && d.Name != "rank_tau_vs_ref") {
				t.Errorf("end-to-end metric %s missing or zero", d.Name)
			}
		}
	}
	cfg.traced, cfg.spans = true, filepath.Join(dir, s.Name+".jsonl")
	rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("%d of %d failed: %v", rep.Failed, rep.Attempted, rep.Failures)
	}
	for _, d := range perLayerDefs {
		if _, ok := rep.Metrics[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
	}
	fit := rep.Metrics["nn.fit_ms_p50"].Value
	if (s.Name == "conv_local" || s.Name == "durable_nt3") && fit <= 0 {
		t.Error("the ledger replay recorded no nn.fit span")
	}
	if s.Name == "resume_nt3" && (fit != 0 || rep.Metrics["checkpoint.adopt_ms_p50"].Value <= 0) {
		t.Errorf("fit %v ms (want 0), adopt %v ms (want > 0)", fit, rep.Metrics["checkpoint.adopt_ms_p50"].Value)
	}
	if info, err := os.Stat(cfg.spans); err != nil || info.Size() == 0 {
		t.Errorf("span file missing or empty: %v", err)
	}
}
