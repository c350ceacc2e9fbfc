package swtnas

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"swtnas/internal/nas"
	"swtnas/internal/trace"
)

func tinyOptions() SearchOptions {
	return SearchOptions{
		App: "nt3", Scheme: "LCS", Budget: 5, Seed: 9,
		TrainN: 24, ValN: 12, PopulationSize: 4, SampleSize: 2,
	}
}

// TestHandleLifecycle drives the full handle API over one search: Start,
// live Events, mid-run TopK, Wait — and checks the stream, the counters and
// the final Result agree.
func TestHandleLifecycle(t *testing.T) {
	s, err := New(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	events := s.Events() // subscribed before Start: sees everything live
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(context.Background()); err == nil {
		t.Fatal("second Start must fail")
	}
	var streamed []Candidate
	for c := range events {
		if c.Filtered {
			t.Fatalf("unexpected filtered candidate %+v", c)
		}
		streamed = append(streamed, c)
	}
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, res.Candidates) {
		t.Fatalf("streamed %d candidates != result's %d", len(streamed), len(res.Candidates))
	}
	if s.Completed() != 5 || s.Resumed() != 0 {
		t.Fatalf("completed = %d resumed = %d", s.Completed(), s.Resumed())
	}
	best, ok := s.BestScore()
	if !ok || best != res.Summary.BestScore {
		t.Fatalf("BestScore = %v %v, summary has %v", best, ok, res.Summary.BestScore)
	}
	// TopK after completion matches Result.Best.
	top := s.TopK(3)
	want := res.Best(3)
	if !reflect.DeepEqual(top, want) {
		t.Fatalf("TopK = %+v\nBest = %+v", top, want)
	}
	// A late subscriber replays the whole history.
	var replayed int
	for range s.Events() {
		replayed++
	}
	if replayed != 5 {
		t.Fatalf("late subscriber saw %d candidates, want 5", replayed)
	}
	// Wait is idempotent.
	res2, err2 := s.Wait()
	if res2 != res || err2 != nil {
		t.Fatal("repeated Wait returned a different outcome")
	}
}

// TestHandleCancelMidStream cancels through the handle while consuming the
// event stream and expects a partial result beside context.Canceled, with
// the stream closing cleanly.
func TestHandleCancelMidStream(t *testing.T) {
	opt := tinyOptions()
	opt.Budget = 1000
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	events := s.Events()
	if err := s.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range events {
		seen++
		if seen == 2 {
			s.Cancel()
		}
	}
	res, err := s.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Candidates) < 2 || len(res.Candidates) >= 1000 {
		t.Fatalf("partial result has %d candidates", len(res.Candidates))
	}
	if len(res.Candidates) != seen {
		t.Fatalf("stream saw %d candidates, result has %d", seen, len(res.Candidates))
	}
}

// TestHandleSharedPoolQuota: a pool admitting one search rejects the second
// with ErrQuotaExceeded from Start (and from Wait), then admits it once the
// first finishes.
func TestHandleSharedPoolQuota(t *testing.T) {
	pool := NewPool(PoolOptions{Workers: 2, MaxActiveSearches: 1})
	defer pool.Close()

	opt := tinyOptions()
	opt.Pool, opt.Tenant = pool, "a"
	first, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Start(context.Background()); err != nil {
		t.Fatal(err)
	}

	opt2 := tinyOptions()
	opt2.Pool, opt2.Tenant = pool, "b"
	second, err := New(opt2)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Start(context.Background()); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Start = %v, want ErrQuotaExceeded", err)
	}
	if _, err := second.Wait(); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Wait = %v, want ErrQuotaExceeded", err)
	}

	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	// Slot freed: a fresh handle is admitted now.
	third, err := New(opt2)
	if err != nil {
		t.Fatal(err)
	}
	if err := third.Start(context.Background()); err != nil {
		t.Fatalf("post-release Start = %v", err)
	}
	if _, err := third.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestHandleSharedPoolMatchesSolo: running on a shared pool changes where
// evaluations execute, not what the search computes — same seed, same trace.
func TestHandleSharedPoolMatchesSolo(t *testing.T) {
	solo, err := Search(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(PoolOptions{Workers: 2})
	defer pool.Close()
	opt := tinyOptions()
	opt.Pool, opt.Tenant = pool, "t"
	pooled, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Candidates) != len(pooled.Candidates) {
		t.Fatalf("candidates: %d vs %d", len(solo.Candidates), len(pooled.Candidates))
	}
	for i := range solo.Candidates {
		a, b := solo.Candidates[i], pooled.Candidates[i]
		if a.ID != b.ID || a.Score != b.Score || !reflect.DeepEqual(a.Arch, b.Arch) {
			t.Fatalf("candidate %d differs: solo %+v pooled %+v", i, a, b)
		}
	}
}

// TestCandidateJSONRoundTrip pins the wire schema of Candidate: field names
// are shared with the serve layer's candidate events, and the
// omitempty-elided fields must stay elided so traces and events compare
// byte for byte.
func TestCandidateJSONRoundTrip(t *testing.T) {
	c := Candidate{
		ID: 3, Arch: []int{1, 2, 0}, Score: 0.91, Params: 1234, ParentID: 1,
		TransferredLayers: 2, TrainTime: 5 * time.Millisecond,
		CheckpointBytes: 2048, CompletedAt: 7 * time.Millisecond,
		EvalTime: 6 * time.Millisecond, QueueWait: time.Millisecond,
		BestScore: 0.95, Resumed: true, ProxyScore: 1.75, Filtered: true,
		Failed: true, FailReason: "non-finite score",
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"id":3,"arch":[1,2,0],"score":0.91,"params":1234,"parent_id":1,` +
		`"transferred_layers":2,"train_time":5000000,"checkpoint_bytes":2048,` +
		`"completed_at":7000000,"eval_time":6000000,"queue_wait":1000000,` +
		`"best_score":0.95,"resumed":true,"proxy_score":1.75,"filtered":true,` +
		`"failed":true,"fail_reason":"non-finite score"}`
	if string(b) != want {
		t.Fatalf("schema drifted:\n got %s\nwant %s", b, want)
	}
	var back Candidate
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, c) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	// Zero-valued optional fields disappear from the wire form.
	lean, err := json.Marshal(Candidate{ID: 1, Arch: []int{0}, ParentID: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"eval_time", "queue_wait", "resumed", "proxy_score", "filtered", "failed", "fail_reason"} {
		if jsonHasField(t, lean, field) {
			t.Fatalf("zero %s serialized: %s", field, lean)
		}
	}
}

// TestHandleFailedCandidateNeverRanks: a Failed candidate (spent retry
// budget, or a non-finite score) counts toward Completed — it consumed
// budget — but never moves BestScore and never appears in TopK, even when
// its zero score beats every real one.
func TestHandleFailedCandidateNeverRanks(t *testing.T) {
	s, err := New(SearchOptions{App: "uno", Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(r nas.Result) { s.completed(r.Record, candidateOf(r)) }
	feed(nas.Result{Record: trace.Record{ID: 0, Failed: true, FailReason: "non-finite score"}})
	if _, ok := s.BestScore(); ok {
		t.Fatal("a Failed candidate set the best score")
	}
	feed(nas.Result{Record: trace.Record{ID: 1, Score: -0.4}, BestScore: -0.4})
	if best, ok := s.BestScore(); !ok || best != -0.4 {
		t.Fatalf("best = %v, %v; want the one real score", best, ok)
	}
	if s.Completed() != 2 {
		t.Fatalf("completed = %d, want both candidates", s.Completed())
	}
	if top := s.TopK(2); len(top) != 1 || top[0].ID != 1 {
		t.Fatalf("top-K = %+v, want only candidate 1", top)
	}
}

// TestTopKMatchesBestOnTies pins the one ranking rule at the public API: nt3
// scores tie at the accuracy ceiling, and with two workers the completion
// order varies, so a leaderboard that broke ties by arrival (as Best did while
// TopK broke them by id) disagreed with itself on 3 of these 8 seeds.
func TestTopKMatchesBestOnTies(t *testing.T) {
	ids := func(cs []Candidate) (out []int) {
		for _, c := range cs {
			out = append(out, c.ID)
		}
		return out
	}
	for seed := int64(1); seed <= 8; seed++ {
		s, err := New(SearchOptions{
			App: "nt3", Scheme: "LCS", Budget: 16, Workers: 2, Seed: seed,
			TrainN: 48, ValN: 24, PopulationSize: 4, SampleSize: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		res, err := s.Wait()
		if err != nil {
			t.Fatal(err)
		}
		best, top := res.Best(5), s.TopK(5)
		if !reflect.DeepEqual(ids(best), ids(top)) {
			t.Errorf("seed %d: Best(5) = %v, TopK(5) = %v", seed, ids(best), ids(top))
		}
		for i := 1; i < len(best); i++ {
			a, b := best[i-1], best[i]
			if a.Score < b.Score || (a.Score == b.Score && a.ID > b.ID) {
				t.Errorf("seed %d: Best(5) = %+v is not score descending, id ascending", seed, ids(best))
			}
		}
	}
}

// TestSearchSummaryJSONRoundTrip pins SearchSummary's wire schema.
func TestSearchSummaryJSONRoundTrip(t *testing.T) {
	s := SearchSummary{
		WallTime: 3 * time.Second, Candidates: 10, Resumed: 4, BestScore: 0.88,
		Transferred: 7, Scratch: 3,
		Eval: LatencyStats{Count: 10, Mean: time.Second, P50: time.Second, P95: 2 * time.Second, Max: 2 * time.Second},
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back SearchSummary
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("round trip lost data:\n got %+v\nwant %+v", back, s)
	}
	for _, field := range []string{"wall_time", "candidates", "resumed", "best_score", "transferred", "scratch", "eval", "queue_wait", "gemm"} {
		if !jsonHasField(t, b, field) {
			t.Fatalf("field %s missing from %s", field, b)
		}
	}
	if jsonHasField(t, b, "metrics") {
		t.Fatalf("nil metrics serialized: %s", b)
	}
	if jsonHasField(t, b, "proxy") {
		t.Fatalf("nil proxy summary serialized: %s", b)
	}

	// With the pre-filter on, the proxy block appears and pins its own
	// field names (the serve layer forwards it verbatim).
	s.Proxy = &ProxySummary{Proposals: 20, Admitted: 10, Filtered: 10, SurrogateRefits: 2, SurrogateMAE: 0.03}
	pb, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var pm struct {
		Proxy map[string]json.RawMessage `json:"proxy"`
	}
	if err := json.Unmarshal(pb, &pm); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"proposals", "admitted", "filtered", "surrogate_refits", "surrogate_mae", "score"} {
		if _, ok := pm.Proxy[field]; !ok {
			t.Fatalf("proxy field %s missing from %s", field, pb)
		}
	}
}

// jsonHasField reports whether a marshalled object has a top-level key.
func jsonHasField(t *testing.T, b []byte, key string) bool {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	_, ok := m[key]
	return ok
}
