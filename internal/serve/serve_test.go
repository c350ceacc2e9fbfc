package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"swtnas"
	"swtnas/internal/resilience"
	"swtnas/internal/trace"
)

// testSubmit is the canonical small search the lifecycle tests run: Workers=1
// keeps each search's proposal stream deterministic (cross-search parallelism
// comes from the shared pool), which is what makes crash-resume comparisons
// exact.
func testSubmit(tenant string, seed int64, budget int) SubmitRequest {
	return SubmitRequest{
		Tenant: tenant, App: "nt3", Scheme: "LCS", Budget: budget,
		Workers: 1, Seed: seed, TrainN: 48, ValN: 24,
		Population: 4, Sample: 2,
	}
}

// referenceOptions is the solo equivalent of testSubmit, for comparing the
// service's output against a plain in-process Search.
func referenceOptions(seed int64, budget int) swtnas.SearchOptions {
	return swtnas.SearchOptions{
		App: "nt3", Scheme: "LCS", Budget: budget,
		Workers: 1, Seed: seed, TrainN: 48, ValN: 24,
		PopulationSize: 4, SampleSize: 2,
	}
}

func newTestServer(t *testing.T, dir string, pool swtnas.PoolOptions) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{DataDir: dir, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req SubmitRequest) SubmitResponse {
	t.Helper()
	resp := postJSON(t, ts, "/"+APIVersion+"/searches", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var out SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) SearchStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/" + APIVersion + "/searches/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d for %s", resp.StatusCode, id)
	}
	var st SearchStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getTopK(t *testing.T, ts *httptest.Server, id string, n int) []swtnas.Candidate {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/%s/searches/%s/topk?n=%d", ts.URL, APIVersion, id, n))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk status %d for %s", resp.StatusCode, id)
	}
	var out TopKResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Candidates
}

// waitState polls a search until pred holds or the deadline passes.
func waitState(t *testing.T, ts *httptest.Server, id string, pred func(SearchStatus) bool) SearchStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if pred(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("search %s never reached the expected state: %+v", id, getStatus(t, ts, id))
	return SearchStatus{}
}

// sameArchs compares candidate lists on the search-determined fields (ID,
// architecture, score, params) — the Resumed flag legitimately differs
// between a resumed service run and an uninterrupted reference run.
func sameArchs(t *testing.T, got, want []swtnas.Candidate, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Score != w.Score || g.Params != w.Params || !reflect.DeepEqual(g.Arch, w.Arch) {
			t.Fatalf("%s: candidate %d differs:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestServerCrashResumeTwoTenants is the acceptance scenario: two tenants'
// searches interleave on one pool, the server dies mid-search without
// cleanup, and a new server on the same data dir resumes both from their
// journals and finishes with the exact top-K an uninterrupted run produces.
func TestServerCrashResumeTwoTenants(t *testing.T) {
	dir := t.TempDir()
	const budget = 10
	// Each search holds after its second commit (a one-evaluator search
	// commits in id order) until the server is crashed, so both are mid-run
	// when it dies: at least two candidates journaled, and too few
	// evaluations can finish between the crash and the cancellation it
	// brings to reach the budget.
	var s1 *Server
	held := make(chan string, 2)
	setCandidateHook(t, func(id string, c swtnas.Candidate) {
		if c.ID != 1 || c.Resumed {
			return
		}
		held <- id
		for {
			s1.mu.Lock()
			closing := s1.closing
			s1.mu.Unlock()
			if closing {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	s1, ts1 := newTestServer(t, dir, swtnas.PoolOptions{Workers: 2})

	a := submit(t, ts1, testSubmit("t1", 3, budget))
	b := submit(t, ts1, testSubmit("t2", 4, budget))
	if a.ID == b.ID {
		t.Fatalf("duplicate search ids: %s", a.ID)
	}

	// Once both are held, die without marking anything — Close is
	// deliberately crash-like.
	got := map[string]bool{}
	for len(got) < 2 {
		select {
		case id := <-held:
			got[id] = true
		case <-time.After(60 * time.Second):
			t.Fatalf("searches held after their second commit: %v, want %s and %s", got, a.ID, b.ID)
		}
	}
	if !got[a.ID] || !got[b.ID] {
		t.Fatalf("searches held: %v, want %s and %s", got, a.ID, b.ID)
	}
	ts1.Close()
	s1.Close()

	// Restart: both searches must auto-resume and run to budget.
	s2, ts2 := newTestServer(t, dir, swtnas.PoolOptions{Workers: 2})
	defer s2.Close()
	stA := waitState(t, ts2, a.ID, func(st SearchStatus) bool { return st.State == StateDone })
	stB := waitState(t, ts2, b.ID, func(st SearchStatus) bool { return st.State == StateDone })
	for _, st := range []SearchStatus{stA, stB} {
		if st.Completed != budget {
			t.Fatalf("%s completed %d of %d", st.ID, st.Completed, budget)
		}
		if st.Resumed == 0 || st.Resumed >= budget {
			t.Fatalf("%s resumed %d candidates; want a strict mid-run split", st.ID, st.Resumed)
		}
		if st.BestScore == nil {
			t.Fatalf("%s has no best score", st.ID)
		}
	}

	// The resumed runs must match uninterrupted reference searches bit for
	// bit on everything the search computes.
	refA, err := swtnas.Search(referenceOptions(3, budget))
	if err != nil {
		t.Fatal(err)
	}
	refB, err := swtnas.Search(referenceOptions(4, budget))
	if err != nil {
		t.Fatal(err)
	}
	sameArchs(t, getTopK(t, ts2, a.ID, 5), refA.Best(5), "tenant t1 top-K")
	sameArchs(t, getTopK(t, ts2, b.ID, 5), refB.Best(5), "tenant t2 top-K")
	if *stA.BestScore != refA.Summary.BestScore || *stB.BestScore != refB.Summary.BestScore {
		t.Fatalf("best scores drifted: %v/%v vs %v/%v",
			*stA.BestScore, *stB.BestScore, refA.Summary.BestScore, refB.Summary.BestScore)
	}

	// The scrape endpoint attributes per-search progress by label.
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	for _, want := range []string{
		fmt.Sprintf(`serve_candidates{search="%s",tenant="t1"}`, a.ID),
		fmt.Sprintf(`serve_candidates{search="%s",tenant="t2"}`, b.ID),
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// Third process: both searches are terminal now, so status comes from
	// metadata and top-K from the journal — and they must agree with the
	// answers the live process gave.
	liveTop := getTopK(t, ts2, a.ID, 5)
	ts2.Close()
	s2.Close()
	s3, ts3 := newTestServer(t, dir, swtnas.PoolOptions{Workers: 1})
	defer s3.Close()
	st := getStatus(t, ts3, a.ID)
	if st.State != StateDone || st.Completed != budget {
		t.Fatalf("restored terminal status: %+v", st)
	}
	sameArchs(t, getTopK(t, ts3, a.ID, 5), liveTop, "journal-backed top-K")

	// Deleting a terminal search removes its files, events and metrics.
	req, err := http.NewRequest(http.MethodDelete, ts3.URL+"/"+APIVersion+"/searches/"+a.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	gone, err := http.Get(ts3.URL + "/" + APIVersion + "/searches/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted search still answers: %d", gone.StatusCode)
	}
}

// TestTopKSameLiveAndRestored: a search that ties at the accuracy ceiling,
// run at workers 2 so completions arrive in either order, answers /topk with
// the same candidates in the same order from the process that ran it (the
// handle) and from one that only has its journal — one ranking rule, both
// paths.
func TestTopKSameLiveAndRestored(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, dir, swtnas.PoolOptions{Workers: 2})
	req := testSubmit("t1", 7, 16)
	req.Workers = 2
	a := submit(t, ts1, req)
	waitState(t, ts1, a.ID, func(st SearchStatus) bool { return st.State == StateDone })
	live := getTopK(t, ts1, a.ID, 5)
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, dir, swtnas.PoolOptions{Workers: 1})
	defer s2.Close()
	restored := getTopK(t, ts2, a.ID, 5)
	sameArchs(t, restored, live, "journal-backed top-K at workers 2")
	for i := 1; i < len(live); i++ {
		if p, c := live[i-1], live[i]; p.Score < c.Score || (p.Score == c.Score && p.ID > c.ID) {
			t.Fatalf("top-K not score descending, id ascending at %d: %+v", i, live)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServerCancelWhileStreaming opens the SSE feed, cancels mid-stream, and
// expects the stream to drain cleanly into a terminal "cancelled" status
// event whose completed count matches the candidates streamed.
func TestServerCancelWhileStreaming(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), swtnas.PoolOptions{Workers: 1})
	defer s.Close()
	sub := submit(t, ts, testSubmit("t1", 7, 100000))

	resp, err := http.Get(ts.URL + "/" + APIVersion + "/searches/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var (
		candidates int
		lastSeq    = -1
		terminal   *SearchStatus
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev CandidateEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if ev.SearchID != sub.ID || ev.Seq != lastSeq+1 {
			t.Fatalf("event stream out of order: %+v after seq %d", ev, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Kind {
		case EventKindCandidate:
			if ev.Candidate == nil {
				t.Fatalf("candidate event without payload: %+v", ev)
			}
			candidates++
			if candidates == 3 {
				// Cancel from a second connection while this one streams.
				go func() {
					r := postJSON(t, ts, "/"+APIVersion+"/searches/"+sub.ID+"/cancel", struct{}{})
					r.Body.Close()
				}()
			}
		case EventKindStatus:
			terminal = ev.Status
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if terminal == nil {
		t.Fatal("stream ended without a terminal status event")
	}
	if terminal.State != StateCancelled {
		t.Fatalf("terminal state %q, want cancelled", terminal.State)
	}
	if candidates < 3 || candidates >= 100000 {
		t.Fatalf("streamed %d candidates before cancel", candidates)
	}
	if terminal.Completed != candidates {
		t.Fatalf("terminal status says %d completed, stream saw %d", terminal.Completed, candidates)
	}
	// The partial result stays queryable after cancellation.
	if got := getTopK(t, ts, sub.ID, 3); len(got) == 0 {
		t.Fatal("no top-K after cancel")
	}
}

// TestServerQuotaRejection: a pool admitting one search answers the second
// submit with 429 and a JSON error, then admits it once capacity frees up.
func TestServerQuotaRejection(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), swtnas.PoolOptions{Workers: 1, MaxActiveSearches: 1})
	defer s.Close()
	first := submit(t, ts, testSubmit("t1", 1, 100000))

	resp := postJSON(t, ts, "/"+APIVersion+"/searches", testSubmit("t2", 2, 5))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit status %d, want 429", resp.StatusCode)
	}
	var eresp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if eresp.Error == "" {
		t.Fatal("429 without an error message")
	}

	cancel := postJSON(t, ts, "/"+APIVersion+"/searches/"+first.ID+"/cancel", struct{}{})
	cancel.Body.Close()
	waitState(t, ts, first.ID, func(st SearchStatus) bool { return st.State == StateCancelled })

	second := submit(t, ts, testSubmit("t2", 2, 3))
	waitState(t, ts, second.ID, func(st SearchStatus) bool { return st.State == StateDone })
}

// TestServerValidation: a bad submission is rejected with 400 naming the
// offending wire field, before any search is created.
func TestServerValidation(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), swtnas.PoolOptions{Workers: 1})
	defer s.Close()

	resp := postJSON(t, ts, "/"+APIVersion+"/searches", SubmitRequest{Tenant: "t", App: "nt3", Scheme: "LCS"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid submit status %d, want 400", resp.StatusCode)
	}
	var eresp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Field != "budget" {
		t.Fatalf("error field %q, want budget", eresp.Field)
	}

	// Unknown apps are caught too, and nothing was admitted either time.
	resp2 := postJSON(t, ts, "/"+APIVersion+"/searches", SubmitRequest{App: "no-such-app", Budget: 3})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-app submit status %d, want 400", resp2.StatusCode)
	}

	// An admit fraction without the filter flag maps back to its wire name.
	resp3 := postJSON(t, ts, "/"+APIVersion+"/searches",
		SubmitRequest{Tenant: "t", App: "nt3", Scheme: "LCS", Budget: 3, ProxyAdmit: 0.5})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("proxy_admit-without-filter submit status %d, want 400", resp3.StatusCode)
	}
	var eresp3 ErrorResponse
	if err := json.NewDecoder(resp3.Body).Decode(&eresp3); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if eresp3.Field != "proxy_admit" {
		t.Fatalf("error field %q, want proxy_admit", eresp3.Field)
	}
	list, err := http.Get(ts.URL + "/" + APIVersion + "/searches")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var lresp ListResponse
	if err := json.NewDecoder(list.Body).Decode(&lresp); err != nil {
		t.Fatal(err)
	}
	if len(lresp.Searches) != 0 {
		t.Fatalf("rejected submissions created %d searches", len(lresp.Searches))
	}
}

// TestServerRefusesSpaceItsAppCannotRun: a custom space whose input is not
// its app's (mnist is 10×10×1) is answered 400 naming the "space" field,
// with the error the search would have failed with, and leaves no search and
// no file in the data dir; the same space with mnist's input is admitted.
func TestServerRefusesSpaceItsAppCannotRun(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir, swtnas.PoolOptions{Workers: 1})
	defer s.Close()
	spec := func(input string) json.RawMessage {
		return json.RawMessage(`{"name": "tiny", "input": ` + input + `, "output_units": 10,
  "nodes": [{"name": "d", "ops": [{"type": "dense", "units": 8}]}]}`)
	}
	req := SubmitRequest{Tenant: "t", App: "mnist", Scheme: "LCS", Budget: 1, Workers: 1, TrainN: 16, ValN: 8, Space: spec("[3, 3, 1]")}
	resp := postJSON(t, ts, "/"+APIVersion+"/searches", req)
	var eresp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eresp.Field != "space" || !strings.Contains(eresp.Error, `does not match dataset "mnist" input [10 10 1]`) {
		t.Fatalf("submit: status %d, field %q, error %q; want 400 on space with the input mismatch", resp.StatusCode, eresp.Field, eresp.Error)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("the refused submit left %d entries in the data dir (err %v)", len(entries), err)
	}
	list, err := http.Get(ts.URL + "/" + APIVersion + "/searches")
	if err != nil {
		t.Fatal(err)
	}
	var lresp ListResponse
	if err := json.NewDecoder(list.Body).Decode(&lresp); err != nil {
		t.Fatal(err)
	}
	list.Body.Close()
	if len(lresp.Searches) != 0 {
		t.Fatalf("the refused submit created %d searches", len(lresp.Searches))
	}

	req.Space = spec("[10, 10, 1]")
	sub := submit(t, ts, req)
	if st := waitState(t, ts, sub.ID, func(st SearchStatus) bool { return terminal(st.State) }); st.State != StateDone {
		t.Fatalf("the admitted space's search ended %s: %s", st.State, st.Error)
	}
}

// TestServerRejectsOversizedSubmit: a body past maxSubmitBytes is answered
// 413 with the JSON error and leaves no search and no file in the data dir;
// the next normal submit is admitted as before.
func TestServerRejectsOversizedSubmit(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir, swtnas.PoolOptions{Workers: 1})
	defer s.Close()

	big := testSubmit("t", 1, 2)
	big.Space = json.RawMessage(`"` + strings.Repeat("x", maxSubmitBytes) + `"`)
	resp := postJSON(t, ts, "/"+APIVersion+"/searches", big)
	var eresp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || eresp.Error == "" {
		t.Fatalf("oversized submit: status %d, error %q; want 413 with a message", resp.StatusCode, eresp.Error)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("oversized submit left %d entries in the data dir (err %v)", len(entries), err)
	}
	list, err := http.Get(ts.URL + "/" + APIVersion + "/searches")
	if err != nil {
		t.Fatal(err)
	}
	var lresp ListResponse
	if err := json.NewDecoder(list.Body).Decode(&lresp); err != nil {
		t.Fatal(err)
	}
	list.Body.Close()
	if len(lresp.Searches) != 0 {
		t.Fatalf("oversized submit created %d searches", len(lresp.Searches))
	}

	sub := submit(t, ts, testSubmit("t", 1, 2))
	waitState(t, ts, sub.ID, func(st SearchStatus) bool { return st.State == StateDone })
}

// TestCandidateEventWireSchema pins the SSE payload: exactly one variant set,
// snake_case keys, and the embedded candidate identical to its standalone
// swtnas.Candidate encoding (shared schema with trace dumps).
func TestCandidateEventWireSchema(t *testing.T) {
	c := swtnas.Candidate{ID: 2, Arch: []int{1, 0}, Score: 0.5, ParentID: -1, BestScore: 0.5}
	standalone, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(CandidateEvent{Kind: EventKindCandidate, SearchID: "s-000001", Seq: 4, Candidate: &c})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`{"kind":"candidate","search_id":"s-000001","seq":4,"candidate":%s}`, standalone)
	if string(b) != want {
		t.Fatalf("event schema drifted:\n got %s\nwant %s", b, want)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["status"]; ok {
		t.Fatalf("unset variant status serialized: %s", b)
	}

	// Status events carry only the status variant.
	st := SearchStatus{ID: "s-000001", App: "nt3", Scheme: "LCS", State: StateDone, Budget: 3, Completed: 3}
	sb, err := json.Marshal(CandidateEvent{Kind: EventKindStatus, SearchID: st.ID, Seq: 5, Status: &st})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(sb), `"candidate"`) || !strings.Contains(string(sb), `"state":"done"`) {
		t.Fatalf("status event schema: %s", sb)
	}

	// Filtered events reuse the candidate variant: the rejected proposal
	// rides in the same shape, marked by kind and the filtered flag.
	fc := swtnas.Candidate{ID: -1, Arch: []int{0, 1}, Params: 900, ParentID: 3, ProxyScore: -1.25, Filtered: true}
	fb, err := json.Marshal(CandidateEvent{Kind: EventKindFiltered, SearchID: "s-000001", Seq: 6, Candidate: &fc})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fb), `"kind":"filtered"`) ||
		!strings.Contains(string(fb), `"proxy_score":-1.25`) ||
		!strings.Contains(string(fb), `"filtered":true`) {
		t.Fatalf("filtered event schema: %s", fb)
	}
}

// TestSubmitProxyFilter: a submission with proxy_filter set runs in
// proxy-filter mode (it streams filtered proposals) and persists the mode
// for resume; metadata written with the key or without it restores each
// search with that mode.
func TestSubmitProxyFilter(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir, swtnas.PoolOptions{Workers: 2})
	defer s.Close()

	req := testSubmit("teamA", 1, 6)
	req.ProxyFilter, req.ProxyAdmit = true, 0.5
	a := submit(t, ts, req)
	waitState(t, ts, a.ID, func(st SearchStatus) bool { return st.State == StateDone })
	resp, err := http.Get(ts.URL + "/" + APIVersion + "/searches/" + a.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	filtered := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev CandidateEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == EventKindFiltered {
			filtered++
		}
		if ev.Kind == EventKindStatus {
			break
		}
	}
	resp.Body.Close()
	if filtered == 0 {
		t.Fatal("proxy-filter search streamed no filtered proposals")
	}
	meta, err := os.ReadFile(filepath.Join(dir, a.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(meta), `"proxy_filter": true`) {
		t.Fatalf("metadata does not persist the proxy mode:\n%s", meta)
	}

	// Metadata as earlier servers wrote it: the key true, false or absent.
	restoreDir := t.TempDir()
	for id, filter := range map[string]string{"s-000000": `"proxy_filter": true,`, "s-000001": `"proxy_filter": false,`, "s-000002": ""} {
		meta := fmt.Sprintf(`{
  "id": %q,
  "request": {"tenant": "teamA", "app": "nt3", "scheme": "LCS", "budget": 6, %s "train_n": 48, "val_n": 24},
  "state": "done",
  "completed": 6
}
`, id, filter)
		if err := os.WriteFile(filepath.Join(restoreDir, id+".json"), []byte(meta), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, _ := newTestServer(t, restoreDir, swtnas.PoolOptions{Workers: 1})
	defer r.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, want := range map[string]bool{"s-000000": true, "s-000001": false, "s-000002": false} {
		st := r.searches[id]
		if st == nil {
			t.Fatalf("search %s not restored", id)
		}
		if got := r.options(st).ProxyFilter; got != want {
			t.Fatalf("search %s restored with ProxyFilter %v, want %v", id, got, want)
		}
	}
}

// TestJournalCandidatesCarryFailed: a journaled Failed record (a lost or
// diverged candidate) reaches the wire marked Failed, does not move the
// running best, and leaves the payload encodable even when it comes first.
func TestJournalCandidatesCarryFailed(t *testing.T) {
	dir := t.TempDir()
	j, err := resilience.Create(filepath.Join(dir, "s1.swtj"), resilience.Header{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []trace.Record{
		{ID: 0, Failed: true, FailReason: "non-finite score"},
		{ID: 1, Score: -0.5},
	} {
		er := resilience.EvalRecord{Record: r}
		if !r.Failed {
			er.Manifest = []byte("SWTM") // a scored record always carries one; its content is not read here
		}
		if err := j.Append(er); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cands, ranked, err := swtnas.JournalCandidates(filepath.Join(dir, "s1.swtj"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 1 || ranked[0].ID != 1 {
		t.Fatalf("ranked = %+v, want only the scored candidate", ranked)
	}
	if len(cands) != 2 || !cands[0].Failed || cands[0].FailReason != "non-finite score" || cands[0].BestScore != 0 {
		t.Fatalf("candidates = %+v, want a Failed first record with no best yet", cands)
	}
	if cands[1].Failed || cands[1].BestScore != -0.5 {
		t.Fatalf("candidate 1 = %+v, want best -0.5 (the failed record's zero score must not count)", cands[1])
	}
	if _, err := json.Marshal(cands); err != nil {
		t.Fatalf("payload does not encode: %v", err)
	}
}
