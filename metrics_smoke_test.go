package swtnas

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"swtnas/internal/obs"
)

// metricsDoc is the slice of the /debug/metrics document the smoke tests
// assert on.
type metricsDoc struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

// TestSearchMetricsSmoke is the end-to-end observability check: a
// metrics-enabled search must attach a summary whose metrics document has
// nonzero GEMM, checkpoint and per-candidate latency series — the same
// acceptance the full `cmd/swtnas -metrics-dump` run is held to.
func TestSearchMetricsSmoke(t *testing.T) {
	prev := obs.SetEnabled(false)
	t.Cleanup(func() {
		obs.SetEnabled(prev)
		obs.Reset()
	})

	res, err := Search(SearchOptions{
		App: "nt3", Scheme: "LCS", Budget: 8, Workers: 2, Seed: 7,
		TrainN: 24, ValN: 12, PopulationSize: 4, SampleSize: 2,
		Metrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	s := res.Summary
	if s == nil {
		t.Fatal("metrics-enabled search returned no summary")
	}
	if s.Candidates != 8 || s.WallTime <= 0 {
		t.Fatalf("summary header = %+v", s)
	}
	if s.BestScore == 0 || math.IsInf(s.BestScore, -1) {
		t.Fatalf("summary best score = %v", s.BestScore)
	}
	if s.Transferred+s.Scratch != s.Candidates {
		t.Fatalf("transfer split %d+%d != %d", s.Transferred, s.Scratch, s.Candidates)
	}
	if s.Eval.Count != 8 || s.Eval.Mean <= 0 || s.Eval.Max < s.Eval.P50 {
		t.Fatalf("eval latency stats = %+v", s.Eval)
	}
	if s.Gemm.Count == 0 || s.Gemm.Mean <= 0 {
		t.Fatalf("gemm latency stats = %+v", s.Gemm)
	}

	var doc metricsDoc
	if err := json.Unmarshal(s.Metrics, &doc); err != nil {
		t.Fatalf("summary metrics document: %v", err)
	}
	for _, name := range []string{
		"tensor.gemm.calls",
		"tensor.gemm.flops",
		"checkpoint.encode.bytes",
		"checkpoint.store.load.hits",
		"nas.candidates.transfer",
	} {
		if doc.Counters[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, doc.Counters[name])
		}
	}
	// Which GEMM body produced the series: the AVX2 kernels or the Go
	// loops — and it is the body the products run.
	if vb := doc.Gauges["tensor.gemm.vector_bytes"]; vb != int64(gemmVectorBytes) || (vb != 32 && vb != 8) {
		t.Errorf("gauge tensor.gemm.vector_bytes = %d, want %d (32 or 8)", vb, gemmVectorBytes)
	}
	// The step buffers of the largest network fitted: a few hundred KB to a
	// few MB for an nt3 candidate, and never nothing.
	if b := doc.Gauges["nn.buffers.bytes"]; b <= 0 {
		t.Errorf("gauge nn.buffers.bytes = %d, want > 0", b)
	}
	for _, name := range []string{
		"tensor.gemm.seconds",
		"checkpoint.encode.seconds",
		"checkpoint.store.save.seconds",
		"nas.eval.seconds",
		"nas.queue.wait.seconds",
	} {
		h, ok := doc.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("histogram %q missing or empty in metrics document", name)
		}
	}

	// Per-candidate latency series surfaced on the candidates themselves.
	for _, c := range res.Candidates {
		if c.EvalTime <= 0 {
			t.Errorf("candidate %d: EvalTime = %v, want > 0", c.ID, c.EvalTime)
		}
		if c.EvalTime < c.TrainTime {
			t.Errorf("candidate %d: EvalTime %v < TrainTime %v", c.ID, c.EvalTime, c.TrainTime)
		}
	}
}

// TestKernelPoolSplitsFewCalls is the count gate on the kernel pool's grain
// (DESIGN.md §9.5): in a cifar10/f32 search on one evaluator with two kernel
// workers, nearly every sharded loop is too small to pay for a handoff and
// must run whole on the caller. Before the grain was measured such a search
// split about 300 calls per candidate and was slower than at one kernel
// worker; the counts below repeat exactly for a seed. The pool's two call
// counters must also account for every call: each GEMM is one parallel.For,
// so split plus kept is at least the GEMM count, and at one kernel worker the
// pool is not consulted at all. Sharding changes no arithmetic, so the two
// searches are the same search.
func TestKernelPoolSplitsFewCalls(t *testing.T) {
	prev := obs.SetEnabled(false)
	t.Cleanup(func() {
		obs.SetEnabled(prev)
		obs.Reset()
	})
	const budget = 4
	search := func(kernelWorkers int) (*Result, map[string]int64) {
		res, err := Search(SearchOptions{
			App: "cifar10", Scheme: "LCS", DType: "f32", Budget: budget, Seed: 5,
			PopulationSize: 4, SampleSize: 2, Workers: 1, KernelWorkers: kernelWorkers,
			Metrics: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var doc metricsDoc
		if err := json.Unmarshal(res.Summary.Metrics, &doc); err != nil {
			t.Fatalf("summary metrics document: %v", err)
		}
		return res, doc.Counters
	}
	one, c1 := search(1)
	two, c2 := search(2)

	split, kept, gemms := c2["parallel.for.calls"], c2["parallel.for.inline"], c2["tensor.gemm.calls"]
	if split > 40*budget {
		t.Errorf("kernel workers 2: %d calls split over %d candidates, want at most 40 per candidate", split, budget)
	}
	if gemms == 0 || gemms != c1["tensor.gemm.calls"] {
		t.Errorf("tensor.gemm.calls = %d at kernel workers 2, %d at 1: want equal and non-zero", gemms, c1["tensor.gemm.calls"])
	}
	if split+kept < gemms {
		t.Errorf("kernel workers 2: %d split + %d kept calls do not cover %d GEMMs", split, kept, gemms)
	}
	if n := c1["parallel.for.calls"] + c1["parallel.for.inline"]; n != 0 {
		t.Errorf("kernel workers 1: the pool counted %d calls, want none", n)
	}
	for i, a := range one.Candidates {
		b := two.Candidates[i]
		if a.ID != b.ID || a.ParentID != b.ParentID || !reflect.DeepEqual(a.Arch, b.Arch) ||
			math.Float64bits(a.Score) != math.Float64bits(b.Score) {
			t.Errorf("candidate %d differs between kernel workers 1 and 2: %+v vs %+v", i, a, b)
		}
	}
	t.Logf("kernel workers 2: %d calls split, %d kept whole, %d GEMMs over %d candidates", split, kept, gemms, budget)
}

// TestDebugMetricsEndpointLive drives the HTTP edge: a live /debug/metrics
// endpoint polled over real TCP while a search runs must serve a JSON
// document containing the GEMM series.
func TestDebugMetricsEndpointLive(t *testing.T) {
	prev := obs.SetEnabled(false)
	t.Cleanup(func() {
		obs.SetEnabled(prev)
		obs.Reset()
	})

	srv, err := obs.Serve("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer srv.Close()

	var polled metricsDoc
	opt := SearchOptions{
		App: "nt3", Scheme: "LCS", Budget: 4, Seed: 9,
		TrainN: 24, ValN: 12, PopulationSize: 4, SampleSize: 2,
		Progress: func(c Candidate) {
			if polled.Counters != nil {
				return // one poll mid-search is enough
			}
			resp, err := http.Get(srv.URL())
			if err != nil {
				t.Errorf("GET %s: %v", srv.URL(), err)
				return
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
				t.Errorf("content type = %q", ct)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("reading metrics body: %v", err)
				return
			}
			if err := json.Unmarshal(body, &polled); err != nil {
				t.Errorf("metrics endpoint served invalid JSON: %v", err)
			}
		},
	}
	if _, err := Search(opt); err != nil {
		t.Fatal(err)
	}
	if polled.Counters == nil {
		t.Fatal("metrics endpoint was never polled")
	}
	if polled.Counters["tensor.gemm.calls"] <= 0 {
		t.Errorf("live endpoint gemm calls = %d, want > 0", polled.Counters["tensor.gemm.calls"])
	}
}
