package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"swtnas"
	"swtnas/internal/apps"
	"swtnas/internal/obs"
)

// Serve-layer telemetry: submissions, quota rejections, the live search
// count, plus per-search labeled candidate/fault counters (search and tenant
// labels) so one /metrics scrape attributes progress to each submitted
// search. DropLabeled removes a search's series when it is deleted.
var (
	mSubmitted = obs.GetCounter("serve.searches.submitted")
	mRejected  = obs.GetCounter("serve.searches.rejected.quota")
	mActive    = obs.GetGauge("serve.searches.active")
	mResumedOn = obs.GetCounter("serve.searches.resumed")
)

// Config parameterizes a Server.
type Config struct {
	// DataDir holds one journal (<id>.swtj), one checkpoint-blob store
	// (<id>.swtj.blobs) and one metadata file (<id>.json) per search; the
	// server scans it on startup and resumes every unfinished search.
	DataDir string
	// Pool sizes the shared evaluator pool every search runs on.
	Pool swtnas.PoolOptions
}

// searchState is the server's record of one search. Live searches carry the
// handle; searches restored from disk in a terminal state serve status and
// top-K from their metadata and journal.
type searchState struct {
	id     string
	req    SubmitRequest
	scheme string // normalized ("baseline" for empty)

	handle     *swtnas.SearchHandle // nil once restored terminal
	settled    chan struct{}        // closed after the watcher records the terminal state
	userCancel bool

	// Terminal snapshot (authoritative when handle == nil).
	state     string
	errMsg    string
	completed int
	resumed   int
	best      *float64
}

// metaFile is the persisted form of a search (<id>.json): enough to resume
// it (the original request rebuilds the exact SearchOptions the journal
// header validates against) and to answer status queries after it finished.
type metaFile struct {
	ID        string        `json:"id"`
	Req       SubmitRequest `json:"request"`
	State     string        `json:"state"`
	Error     string        `json:"error,omitempty"`
	Completed int           `json:"completed"`
	Resumed   int           `json:"resumed,omitempty"`
	Best      *float64      `json:"best_score,omitempty"`
}

// Server is the NAS service: it owns the evaluator pool and the journal
// directory, runs searches submitted over HTTP, and survives kill -9 — on
// restart every search that never reached a terminal state resumes from its
// journal. It implements http.Handler.
type Server struct {
	dir  string
	pool *swtnas.EvaluatorPool
	mux  *http.ServeMux

	mu       sync.Mutex
	searches map[string]*searchState
	order    []string
	nextSeq  int
	closing  bool
	wg       sync.WaitGroup
}

// New creates the server, scans DataDir and auto-resumes unfinished
// searches.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("serve: Config.DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	s := &Server{
		dir:      cfg.DataDir,
		pool:     swtnas.NewPool(cfg.Pool),
		searches: map[string]*searchState{},
	}
	s.routes()
	obs.SetEnabled(true)
	if err := s.restore(); err != nil {
		s.pool.Close()
		return nil, err
	}
	return s, nil
}

// Close stops the server crash-like: running searches are cancelled without
// writing terminal markers, so a later New on the same DataDir resumes them
// exactly as it would after kill -9. (User cancels and natural completions
// persisted their markers already.)
func (s *Server) Close() {
	s.mu.Lock()
	s.closing = true
	var handles []*swtnas.SearchHandle
	for _, st := range s.searches {
		if st.handle != nil && st.state == StateRunning {
			handles = append(handles, st.handle)
		}
	}
	s.mu.Unlock()
	for _, h := range handles {
		h.Cancel()
	}
	s.wg.Wait()
	s.pool.Close()
}

// ServeHTTP dispatches to the versioned REST routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	base := "/" + APIVersion + "/searches"
	s.mux.HandleFunc("POST "+base, s.handleSubmit)
	s.mux.HandleFunc("GET "+base, s.handleList)
	s.mux.HandleFunc("GET "+base+"/{id}", s.handleStatus)
	s.mux.HandleFunc("GET "+base+"/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET "+base+"/{id}/topk", s.handleTopK)
	s.mux.HandleFunc("POST "+base+"/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("DELETE "+base+"/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","workers":%d}`+"\n", s.pool.Workers())
	})
	s.mux.Handle("GET "+obs.MetricsPath, obs.Handler())
	s.mux.Handle("GET "+obs.PromPath, obs.PromHandler())
}

// restore scans DataDir: terminal searches are kept for status/top-K,
// unfinished ones are resumed from their journals.
func (s *Server) restore() error {
	metas, err := filepath.Glob(filepath.Join(s.dir, "s-*.json"))
	if err != nil {
		return err
	}
	sort.Strings(metas)
	for _, path := range metas {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var m metaFile
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("serve: corrupt metadata %s: %w", path, err)
		}
		if seq, ok := parseID(m.ID); ok && seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
		st := &searchState{
			id: m.ID, req: m.Req, scheme: schemeName(m.Req.Scheme),
			state: m.State, errMsg: m.Error,
			completed: m.Completed, resumed: m.Resumed, best: m.Best,
		}
		s.searches[m.ID] = st
		s.order = append(s.order, m.ID)
		if terminal(m.State) {
			continue
		}
		// Unfinished: the previous process died mid-run. Resume from the
		// journal (or start over if it crashed before the first record).
		opt := s.options(st)
		if _, err := os.Stat(opt.JournalPath); err == nil {
			opt.Resume = true
		}
		st.state = StateRunning
		if err := s.launch(st, opt); err != nil {
			st.state = StateFailed
			st.errMsg = err.Error()
			s.persist(st)
			continue
		}
		mResumedOn.Inc()
	}
	return nil
}

// candidateHook, when non-nil, is called with the search's id for every
// candidate a search completes, on its scheduler goroutine (the search's
// Progress), so that a test can hold a search at a point it chooses.
var candidateHook func(id string, c swtnas.Candidate)

// options maps a search's persisted request onto SearchOptions, pointing it
// at the server's pool and the search's journal. Resuming after a restart
// rebuilds the identical options, which the journal header then validates.
func (s *Server) options(st *searchState) swtnas.SearchOptions {
	var progress func(swtnas.Candidate)
	if hook := candidateHook; hook != nil {
		progress = func(c swtnas.Candidate) { hook(st.id, c) }
	}
	return swtnas.SearchOptions{
		App:            st.req.App,
		Scheme:         st.req.Scheme,
		Budget:         st.req.Budget,
		Workers:        st.req.Workers,
		Seed:           st.req.Seed,
		DataSeed:       st.req.DataSeed,
		TrainN:         st.req.TrainN,
		ValN:           st.req.ValN,
		PopulationSize: st.req.Population,
		SampleSize:     st.req.Sample,
		RetainTopK:     st.req.RetainTopK,
		ProxyFilter:    st.req.ProxyFilter,
		ProxyAdmit:     st.req.ProxyAdmit,
		MultiObjective: st.req.MultiObjective,
		DType:          st.req.DType,
		SpaceJSON:      string(st.req.Space),
		JournalPath:    filepath.Join(s.dir, st.id+".swtj"),
		Pool:           s.pool,
		Tenant:         st.req.Tenant,
		Weight:         st.req.Weight,
		Progress:       progress,
	}
}

// launch creates, starts and watches a search handle.
func (s *Server) launch(st *searchState, opt swtnas.SearchOptions) error {
	h, err := swtnas.New(opt)
	if err != nil {
		return err
	}
	if err := h.Start(context.Background()); err != nil {
		return err
	}
	st.handle = h
	st.settled = make(chan struct{})
	mActive.Add(1)
	s.wg.Add(1)
	go s.watch(st)
	return nil
}

// watch consumes one search's event stream (feeding the per-search labeled
// metrics) and persists its terminal state — unless the server is closing,
// in which case the search is left unmarked so the next process resumes it.
func (s *Server) watch(st *searchState) {
	defer s.wg.Done()
	defer mActive.Add(-1)
	defer close(st.settled)
	cands := obs.GetCounter(obs.Labeled("serve.candidates", "search", st.id, "tenant", st.req.Tenant))
	filtered := obs.GetCounter(obs.Labeled("serve.filtered", "search", st.id, "tenant", st.req.Tenant))
	for c := range st.handle.Events() {
		if c.Filtered {
			filtered.Inc()
		} else {
			cands.Inc()
		}
	}
	_, err := st.handle.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	st.completed = st.handle.Completed()
	st.resumed = st.handle.Resumed()
	if b, ok := st.handle.BestScore(); ok {
		st.best = &b
	}
	switch {
	case err == nil:
		st.state = StateDone
	case errors.Is(err, context.Canceled) && st.userCancel:
		st.state = StateCancelled
	case errors.Is(err, context.Canceled) && s.closing:
		// Crash-like shutdown: leave the metadata saying "running" so the
		// next process resumes from the journal.
		return
	default:
		st.state = StateFailed
		st.errMsg = err.Error()
	}
	s.persist(st)
}

// persist writes a search's metadata atomically (tmp + rename).
func (s *Server) persist(st *searchState) {
	m := metaFile{
		ID: st.id, Req: st.req, State: st.state, Error: st.errMsg,
		Completed: st.completed, Resumed: st.resumed, Best: st.best,
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return
	}
	path := filepath.Join(s.dir, st.id+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return
	}
	os.Rename(tmp, path) //nolint:errcheck // best effort; resume re-runs instead
}

func parseID(id string) (int, bool) {
	var seq int
	if _, err := fmt.Sscanf(id, "s-%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

func terminal(state string) bool {
	return state == StateDone || state == StateCancelled || state == StateFailed
}

func schemeName(scheme string) string {
	if scheme == "" {
		return "baseline"
	}
	return scheme
}

// statusLocked snapshots one search's wire status; callers hold s.mu.
func (s *Server) statusLocked(st *searchState) SearchStatus {
	out := SearchStatus{
		ID: st.id, Tenant: st.req.Tenant, Name: st.req.Name,
		App: st.req.App, Scheme: st.scheme, State: st.state,
		Budget: st.req.Budget, Completed: st.completed,
		Resumed: st.resumed, BestScore: st.best, Error: st.errMsg,
	}
	if st.handle != nil && !terminal(st.state) {
		out.Completed = st.handle.Completed()
		out.Resumed = st.handle.Resumed()
		if b, ok := st.handle.BestScore(); ok {
			out.BestScore = &b
		}
	}
	return out
}

// wireField maps SearchOptions field names (InvalidOptionError.Field) onto
// SubmitRequest JSON keys for 400 responses.
var wireField = map[string]string{
	"App": "app", "Scheme": "scheme", "Budget": "budget",
	"Workers": "workers", "Weight": "weight",
	"Seed": "seed", "DataSeed": "data_seed",
	"TrainN": "train_n", "ValN": "val_n",
	"PopulationSize": "population", "SampleSize": "sample",
	"RetainTopK":  "retain_top_k",
	"ProxyFilter": "proxy_filter", "ProxyAdmit": "proxy_admit",
	"MultiObjective": "multi_objective", "DType": "dtype",
}

// fail writes the uniform JSON error body.
func fail(w http.ResponseWriter, code int, field, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorResponse{Error: msg, Field: field}) //nolint:errcheck
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// maxSubmitBytes bounds a submission body, which is persisted whole as <id>.json.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		fail(w, code, "", "decoding request: "+err.Error())
		return
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		fail(w, http.StatusServiceUnavailable, "", "server is shutting down")
		return
	}
	id := fmt.Sprintf("s-%06d", s.nextSeq)
	st := &searchState{id: id, req: req, scheme: schemeName(req.Scheme), state: StatePending}
	opt := s.options(st)
	if err := opt.Validate(); err != nil {
		s.mu.Unlock()
		var ie *swtnas.InvalidOptionError
		if errors.As(err, &ie) {
			fail(w, http.StatusBadRequest, wireField[ie.Field], err.Error())
		} else {
			fail(w, http.StatusBadRequest, "", err.Error())
		}
		return
	}
	// A custom space is admitted here, as the search would admit it, so a
	// space the app cannot train is a 400 and never a search that fails.
	if opt.SpaceJSON != "" {
		if err := apps.Admit(opt.App, opt.SpaceJSON); err != nil {
			s.mu.Unlock()
			fail(w, http.StatusBadRequest, "space", err.Error())
			return
		}
	}
	s.nextSeq++
	st.state = StateRunning
	if err := s.launch(st, opt); err != nil {
		s.mu.Unlock()
		if errors.Is(err, swtnas.ErrQuotaExceeded) {
			mRejected.Inc()
			fail(w, http.StatusTooManyRequests, "", err.Error())
			return
		}
		fail(w, http.StatusInternalServerError, "", err.Error())
		return
	}
	s.searches[id] = st
	s.order = append(s.order, id)
	s.persist(st)
	status := s.statusLocked(st)
	s.mu.Unlock()
	mSubmitted.Inc()
	writeJSON(w, http.StatusCreated, SubmitResponse{ID: id, Status: status})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := ListResponse{Searches: make([]SearchStatus, 0, len(s.order))}
	for _, id := range s.order {
		out.Searches = append(out.Searches, s.statusLocked(s.searches[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// lookup resolves {id}; it writes the 404 itself when absent.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *searchState {
	s.mu.Lock()
	st := s.searches[r.PathValue("id")]
	s.mu.Unlock()
	if st == nil {
		fail(w, http.StatusNotFound, "", "no search "+r.PathValue("id"))
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	s.mu.Lock()
	status := s.statusLocked(st)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	s.mu.Lock()
	h := st.handle
	if h != nil && !terminal(st.state) {
		st.userCancel = true
	}
	s.mu.Unlock()
	if h != nil {
		h.Cancel()
		<-st.settled
	}
	s.mu.Lock()
	status := s.statusLocked(st)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	n := 10
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			fail(w, http.StatusBadRequest, "", "n must be a positive integer")
			return
		}
		n = v
	}
	var cands []swtnas.Candidate
	s.mu.Lock()
	h := st.handle
	s.mu.Unlock()
	if h != nil {
		cands = h.TopK(n)
	} else {
		_, ranked, err := swtnas.JournalCandidates(filepath.Join(s.dir, st.id+".swtj"))
		if err != nil {
			fail(w, http.StatusInternalServerError, "", err.Error())
			return
		}
		cands = ranked[:min(n, len(ranked))]
	}
	if cands == nil {
		cands = []swtnas.Candidate{}
	}
	writeJSON(w, http.StatusOK, TopKResponse{ID: st.id, Candidates: cands})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st := s.searches[id]
	if st == nil {
		s.mu.Unlock()
		fail(w, http.StatusNotFound, "", "no search "+id)
		return
	}
	if !terminal(st.state) {
		s.mu.Unlock()
		fail(w, http.StatusConflict, "", "search "+id+" is still running; cancel it first")
		return
	}
	delete(s.searches, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	journal := filepath.Join(s.dir, id+".swtj")
	os.Remove(filepath.Join(s.dir, id+".json")) //nolint:errcheck
	os.Remove(journal)                          //nolint:errcheck
	os.RemoveAll(journal + ".blobs")            //nolint:errcheck
	obs.DropLabeled("search", id)
	w.WriteHeader(http.StatusNoContent)
}

// handleEvents streams the search as server-sent events: the full candidate
// history first (a reconnecting client misses nothing), then live progress,
// then one terminal status event before the stream closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(w, r)
	if st == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		fail(w, http.StatusInternalServerError, "", "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	seq := 0
	send := func(ev CandidateEvent) bool {
		ev.SearchID = st.id
		ev.Seq = seq
		seq++
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	s.mu.Lock()
	h := st.handle
	s.mu.Unlock()
	if h != nil {
		ch := h.Events()
		for {
			select {
			case <-r.Context().Done():
				return
			case c, ok := <-ch:
				if !ok {
					// Search finished; wait for the watcher to record the
					// terminal state, then close with it below.
					select {
					case <-st.settled:
					case <-r.Context().Done():
						return
					}
					goto done
				}
				we := CandidateEvent{Kind: EventKindCandidate, Candidate: &c}
				if c.Filtered {
					we.Kind = EventKindFiltered
				}
				if !send(we) {
					return
				}
			}
		}
	} else {
		// Terminal search from a previous process: replay its journal.
		cands, _, err := swtnas.JournalCandidates(filepath.Join(s.dir, st.id+".swtj"))
		if err != nil {
			return
		}
		for i := range cands {
			if !send(CandidateEvent{Kind: EventKindCandidate, Candidate: &cands[i]}) {
				return
			}
		}
	}
done:
	s.mu.Lock()
	status := s.statusLocked(st)
	s.mu.Unlock()
	send(CandidateEvent{Kind: EventKindStatus, Status: &status})
}
