package nas

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/evo"
	"swtnas/internal/resilience"
	"swtnas/internal/trace"
)

func tracesEqual(t *testing.T, a, b *trace.Trace, label string) {
	t.Helper()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("%s: %d records vs %d", label, len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.ID != rb.ID || math.Float64bits(ra.Score) != math.Float64bits(rb.Score) || ra.ParentID != rb.ParentID ||
			ra.Params != rb.Params || ra.TransferCopied != rb.TransferCopied || ra.Failed != rb.Failed {
			t.Fatalf("%s: record %d differs:\n  full   %+v\n  resumed %+v", label, i, ra, rb)
		}
		if fmt.Sprint(ra.Arch) != fmt.Sprint(rb.Arch) {
			t.Fatalf("%s: record %d arch %v vs %v", label, i, ra.Arch, rb.Arch)
		}
		// Every executor returns the evaluator's record whole: the
		// evaluation latency crosses the wire too.
		if !ra.Failed && (ra.EvalTime <= 0 || rb.EvalTime <= 0) {
			t.Fatalf("%s: record %d evaluation latency %v vs %v, want both measured", label, i, ra.EvalTime, rb.EvalTime)
		}
	}
	ka, kb := a.TopK(3), b.TopK(3)
	if fmt.Sprint(ka) != fmt.Sprint(kb) {
		t.Fatalf("%s: top-K %v vs %v", label, ka, kb)
	}
}

// journaledCASRun executes one full journaled LCS search against a
// content-addressed disk store. It returns the trace, the recovered records,
// and the store directory (shared by resumed runs, like a real crash would).
func journaledCASRun(t *testing.T, dir string, budget, retainTopK int) (*trace.Trace, []resilience.EvalRecord, string) {
	t.Helper()
	app := tinyApp(t, "nt3")
	storeDir := filepath.Join(dir, "blobs")
	store, err := checkpoint.NewCASDiskStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run.swtj")
	j, err := resilience.Create(path, resilience.Header{App: app.Name, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		App:        app,
		Matcher:    core.LCS{},
		Strategy:   evo.NewRegularizedEvolution(app.Space, 3, 2),
		Store:      store,
		Budget:     budget,
		Seed:       11,
		Journal:    j,
		RetainTopK: retainTopK,
	}
	tr, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := resilience.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != budget {
		t.Fatalf("journal holds %d records, want %d", len(rec.Records), budget)
	}
	for i, er := range rec.Records {
		if len(er.Manifest) == 0 {
			t.Fatalf("record %d carries no manifest", i)
		}
	}
	// The structural win: the journal no longer grows by a full checkpoint
	// per candidate.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var rawCkpt int64
	for _, r := range tr.Records {
		rawCkpt += r.CheckpointBytes
	}
	if info.Size() >= rawCkpt/2 {
		t.Fatalf("journal is %d bytes for %d bytes of checkpoints — manifest records should be far smaller", info.Size(), rawCkpt)
	}
	return tr, rec.Records, storeDir
}

// resumeCASRun opens the journal and store a crashed CAS-backed run left
// behind and runs the search to completion.
func resumeCASRun(t *testing.T, path, storeDir string, budget, retainTopK int) *trace.Trace {
	t.Helper()
	app := tinyApp(t, "nt3")
	j, rec, err := resilience.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.NewCASDiskStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(context.Background(), Config{
		App:        app,
		Matcher:    core.LCS{},
		Strategy:   evo.NewRegularizedEvolution(app.Space, 3, 2),
		Store:      store,
		Budget:     budget,
		Seed:       11,
		Journal:    j,
		Resume:     rec,
		RetainTopK: retainTopK,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if retainTopK == 0 {
		// The store a resumed run rebuilds must hold, for every replayed
		// candidate, the exact manifest the original run journaled.
		for _, er := range rec.Records {
			got, err := store.EncodedManifest(CandidateID(er.Record.ID))
			if err != nil || !bytes.Equal(got, er.Manifest) {
				t.Fatalf("candidate %d: restored manifest differs from the journaled one (err %v)", er.Record.ID, err)
			}
		}
	}
	return resumed
}

// TestResumeManifestBitIdenticalAtEveryInterrupt is the every-index
// interrupt guarantee: rebuild the journal a crash after candidate k would
// have left, resume against the surviving blob store, and the completed run
// must match the uninterrupted one record for record.
func TestResumeManifestBitIdenticalAtEveryInterrupt(t *testing.T) {
	const budget = 6
	dir := t.TempDir()
	full, recs, storeDir := journaledCASRun(t, dir, budget, 0)
	app := tinyApp(t, "nt3")

	for k := 0; k <= budget; k++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.swtj", k))
		j, err := resilience.Create(path, resilience.Header{App: app.Name, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		for _, er := range recs[:k] {
			if err := j.Append(er); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		resumed := resumeCASRun(t, path, storeDir, budget, 0)
		tracesEqual(t, full, resumed, fmt.Sprintf("manifest interrupt after %d candidates", k))
	}
}

// TestResumeManifestTornTailMidDelta crashes mid-append of a record: every
// truncation point inside the final record must recover the clean prefix and
// resume to the identical run.
func TestResumeManifestTornTailMidDelta(t *testing.T) {
	const budget = 3
	dir := t.TempDir()
	full, _, storeDir := journaledCASRun(t, dir, budget, 0)
	path := filepath.Join(dir, "run.swtj")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the last record's start: the largest prefix that parses clean
	// with budget-1 records.
	lastLen := len(raw)
	for cut := len(raw) - 1; cut > 0; cut-- {
		r, err := readTruncated(t, dir, raw[:cut])
		if err == nil && !r.Torn && len(r.Records) == budget-1 {
			lastLen = cut
			break
		}
	}
	if lastLen == len(raw) {
		t.Fatal("could not locate the final record's extent")
	}

	for _, cut := range []int{lastLen + 1, lastLen + (len(raw)-lastLen)/2, len(raw) - 1} {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.swtj", cut))
		if err := os.WriteFile(torn, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, rc, err := resilience.Open(torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !rc.Torn || len(rc.Records) != budget-1 {
			t.Fatalf("cut %d: torn=%v records=%d", cut, rc.Torn, len(rc.Records))
		}
		j.Close()
		resumed := resumeCASRun(t, torn, storeDir, budget, 0)
		tracesEqual(t, full, resumed, fmt.Sprintf("torn mid-delta at byte %d", cut))
	}
}

// readTruncated parses a journal prefix written to a scratch file.
func readTruncated(t *testing.T, dir string, b []byte) (*resilience.Recovery, error) {
	t.Helper()
	p := filepath.Join(dir, "probe.swtj")
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return resilience.Read(p)
}

// TestResumeWithGCBitIdentical: a run that garbage-collects evicted
// candidates' checkpoints must still resume bit-identically — the replay
// tolerates manifests whose blobs were collected before the crash and
// converges to the same trace and top-K.
func TestResumeWithGCBitIdentical(t *testing.T) {
	const (
		budget = 6
		retain = 2
	)
	fullDir := t.TempDir()
	full, _, fullStore := journaledCASRun(t, fullDir, budget, retain)

	// GC must actually have collected something: population 3 overflows at
	// candidate 4, and only the top-2 (plus pinned parents) survive.
	st, err := checkpoint.NewCASDiskStore(fullStore)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) >= budget {
		t.Fatalf("GC run still holds all %d checkpoints", len(ids))
	}

	// Crash the run at candidate k by cancelling from the Progress hook,
	// then resume against the same journal and store directory.
	for _, k := range []int{2, 4} {
		dir := t.TempDir()
		app := tinyApp(t, "nt3")
		storeDir := filepath.Join(dir, "blobs")
		store, err := checkpoint.NewCASDiskStore(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "run.swtj")
		j, err := resilience.Create(path, resilience.Header{App: app.Name, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := 0
		_, err = Run(ctx, Config{
			App:        app,
			Matcher:    core.LCS{},
			Strategy:   evo.NewRegularizedEvolution(app.Space, 3, 2),
			Store:      store,
			Budget:     budget,
			Seed:       11,
			Journal:    j,
			RetainTopK: retain,
			Progress: func(Result) {
				if done++; done >= k {
					cancel()
				}
			},
		})
		cancel()
		if err == nil {
			t.Fatalf("k=%d: interrupted run should report the context error", k)
		}
		j.Close()

		resumed := resumeCASRun(t, path, storeDir, budget, retain)
		tracesEqual(t, full, resumed, fmt.Sprintf("GC resume after %d candidates", k))
	}
}

// cancelAfterSibling evaluates each task inline, except the first whose
// provider is the population's oldest member (ID−3 at population 3) and not
// the best candidate so far. That task is held until the next one has been
// evaluated, then answered as cancelled, with the search's context, just
// ahead of the next one's result: the search commits a candidate after the
// cancellation, and that commit ages the held task's provider out.
type cancelAfterSibling struct {
	cancel context.CancelFunc
	scores map[int]float64
	best   float64
	held   *Task
	fired  bool
}

func (e *cancelAfterSibling) Submit(ctx context.Context, t Task, eval EvalFunc, out chan<- Result) {
	switch {
	case e.held != nil:
		r := eval(ctx, t)
		e.cancel()
		out <- errResult(*e.held, context.Canceled)
		out <- r
	case !e.fired && t.ParentID >= 0 && t.ParentID == t.ID-3 && e.scores[t.ParentID] < e.best:
		e.held, e.fired = &t, true
	default:
		r := eval(ctx, t)
		e.scores[t.ID], e.best = r.Score, max(e.best, r.Score)
		out <- r
	}
}

// TestGCResumeAfterCancelKeepsProvider: a search with checkpoint GC that is
// cancelled at two evaluators while a later candidate still commits keeps
// the cancelled task's provider, so the run resumed from its journal, which
// re-issues that task, completes.
func TestGCResumeAfterCancelKeepsProvider(t *testing.T) {
	const (
		budget = 12
		retain = 1
	)
	dir := t.TempDir()
	app := tinyApp(t, "nt3")
	storeDir := filepath.Join(dir, "blobs")
	path := filepath.Join(dir, "run.swtj")
	cfg := func(store checkpoint.Store, j *resilience.Journal) Config {
		return Config{
			App:        app,
			Matcher:    core.LCS{},
			Strategy:   evo.NewRegularizedEvolution(app.Space, 3, 2),
			Store:      store,
			Budget:     budget,
			Workers:    2,
			Seed:       11,
			Journal:    j,
			RetainTopK: retain,
		}
	}
	store, err := checkpoint.NewCASDiskStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := resilience.Create(path, resilience.Header{App: app.Name, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exec := &cancelAfterSibling{cancel: cancel, scores: map[int]float64{}}
	c := cfg(store, j)
	c.Executor = exec
	tr, err := Run(ctx, c)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	j.Close()
	if exec.held == nil {
		t.Fatal("no task had the population's oldest member as provider; the test needs another seed")
	}
	if last := tr.Records[len(tr.Records)-1].ID; last != exec.held.ID+1 {
		t.Fatalf("last committed candidate %d, want %d, committed after the cancellation", last, exec.held.ID+1)
	}

	j, rec, err := resilience.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if store, err = checkpoint.NewCASDiskStore(storeDir); err != nil {
		t.Fatal(err)
	}
	c = cfg(store, j)
	c.Resume = rec
	resumed, err := Run(context.Background(), c)
	if err != nil {
		t.Fatalf("resuming after cancelling candidate %d (provider %d): %v", exec.held.ID, exec.held.ParentID, err)
	}
	if len(resumed.Records) != budget {
		t.Fatalf("resumed run holds %d records, want %d", len(resumed.Records), budget)
	}
	for _, r := range resumed.Records {
		if r.Failed {
			t.Fatalf("candidate %d failed: %s", r.ID, r.FailReason)
		}
	}
}

// submitSpy counts the tasks a run hands its executor and answers each as a
// cancelled one, so nothing trains.
type submitSpy struct{ n int }

func (s *submitSpy) Submit(_ context.Context, t Task, _ EvalFunc, out chan<- Result) {
	s.n++
	out <- errResult(t, context.Canceled)
}

// runWithin is Run under a deadline: a resume that waits for a completion
// nobody will deliver fails the test instead of hanging it.
func runWithin(t *testing.T, d time.Duration, ctx context.Context, cfg Config) (*trace.Trace, error) {
	t.Helper()
	type outcome struct {
		tr  *trace.Trace
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		tr, err := Run(ctx, cfg)
		done <- outcome{tr, err}
	}()
	select {
	case o := <-done:
		return o.tr, o.err
	case <-time.After(d):
		t.Fatalf("Run did not return within %s", d)
		return nil, nil
	}
}

// TestResumeRejectsMismatchedRun: a journal that does not answer the schedule
// the run options re-derive must fail loudly, before anything is submitted
// for training — not silently diverge, and not wait for a candidate that was
// never issued. Each want is a regular expression.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	const budget = 4
	dir := t.TempDir()
	_, _, storeDir := journaledCASRun(t, dir, budget, 0)
	store, err := checkpoint.NewCASDiskStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := resilience.Read(filepath.Join(dir, "run.swtj"))
	if err != nil {
		t.Fatal(err)
	}
	// edited returns the recovery with record i changed.
	edited := func(i int, edit func(*trace.Record)) *resilience.Recovery {
		cp := *rec
		cp.Records = append([]resilience.EvalRecord(nil), rec.Records...)
		edit(&cp.Records[i].Record)
		return &cp
	}
	const disagree = "journal and run options disagree"
	app := tinyApp(t, "nt3")
	for name, tc := range map[string]struct {
		mutate func(*Config)
		want   string
	}{
		"a different seed":                        {func(c *Config) { c.Seed = 12 }, disagree},
		"a smaller budget than the journal holds": {func(c *Config) { c.Budget = 2 }, "journal holds"},
		"a candidate outside the replayed schedule": {func(c *Config) {
			c.Resume = edited(1, func(r *trace.Record) { r.ID = budget + 3 })
		}, disagree},
		"a candidate recorded twice": {func(c *Config) {
			c.Resume = edited(2, func(r *trace.Record) { r.ID = 0 })
		}, disagree},
		// Two cores let candidates 1 and 2 be issued beside 0, so their
		// records answer open tasks, only too early: buffered, they would
		// wait for a record of candidate 0 that never comes.
		"a journal without its first candidate": {func(c *Config) {
			cp := *rec
			cp.Records = rec.Records[1:3]
			c.Resume, c.Executor, c.KernelWorkers = &cp, nil, 2
		}, "journal candidate 1 comes before candidate 0 — " + disagree},
		"a candidate whose arch disagrees": {func(c *Config) {
			c.Resume = edited(budget-1, func(r *trace.Record) { r.Arch = append([]int{r.Arch[0] + 1}, r.Arch[1:]...) })
		}, disagree},
		// A journal written while a Failed candidate stayed out of the
		// population can re-derive the same architecture from another parent.
		"a candidate whose parent disagrees": {func(c *Config) {
			c.Resume = edited(budget-1, func(r *trace.Record) { r.ParentID = (r.ParentID + 1) % (budget - 1) })
		}, fmt.Sprintf("journal candidate %d has .* %s", budget-1, disagree)},
		"a journal of the per-tensor store (SWTM version 1)": {func(c *Config) {
			c.Resume = edited(0, func(*trace.Record) {})
			old := append([]byte(nil), rec.Records[0].Manifest...)
			old[4] = 1 // the version word follows the 4-byte magic
			c.Resume.Records[0].Manifest = old
		}, "unsupported manifest version 1"},
	} {
		spy := &submitSpy{}
		cfg := Config{
			App:      app,
			Matcher:  core.LCS{},
			Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2),
			Store:    store,
			Budget:   budget,
			Seed:     11,
			Resume:   rec,
			Executor: spy,
		}
		tc.mutate(&cfg)
		if _, err := runWithin(t, 30*time.Second, context.Background(), cfg); err == nil || !regexp.MustCompile(tc.want).MatchString(err.Error()) {
			t.Errorf("resume under %s: err = %v, want one saying %q", name, err, tc.want)
		}
		if spy.n != 0 {
			t.Errorf("resume under %s submitted %d tasks before failing", name, spy.n)
		}
	}
}

// TestResumeCancelledBeforeRunKeepsJournal: a resumed run whose context is
// already cancelled still returns every journaled candidate in its partial
// trace, beside the context's error, trains nothing and leaves no evaluator
// goroutine behind.
func TestResumeCancelledBeforeRunKeepsJournal(t *testing.T) {
	const budget, cut = 6, 3
	dir := t.TempDir()
	full, recs, storeDir := journaledCASRun(t, dir, budget, 0)
	app := tinyApp(t, "nt3")
	path := filepath.Join(dir, "cut.swtj")
	j, err := resilience.Create(path, resilience.Header{App: app.Name, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range recs[:cut] {
		if err := j.Append(er); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, rec, err := resilience.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	store, err := checkpoint.NewCASDiskStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resumed := 0
	tr, err := runWithin(t, 30*time.Second, ctx, Config{
		App:      app,
		Matcher:  core.LCS{},
		Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2),
		Store:    store,
		Budget:   budget,
		Workers:  2,
		Seed:     11,
		Journal:  j,
		Resume:   rec,
		Progress: func(r Result) {
			if r.Resumed {
				resumed++
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tr == nil || len(tr.Records) != cut || resumed != cut {
		t.Fatalf("partial trace = %+v (%d streamed as Resumed), want the %d journaled records", tr, resumed, cut)
	}
	tracesEqual(t, &trace.Trace{Records: full.Records[:cut]}, tr, "journaled prefix of a cancelled resume")
	waitForGoroutines(t)
	if after, err := resilience.Read(path); err != nil || len(after.Records) != cut {
		t.Fatalf("cancelled resume changed the journal: %d records, err %v", len(after.Records), err)
	}
}

// TestJournalNeedsDurableStore: a journal record is a manifest, so pairing a
// journal (or a recovered one) with a store whose blobs do not survive the
// process is a configuration error, reported before anything is proposed or
// appended.
func TestJournalNeedsDurableStore(t *testing.T) {
	app := tinyApp(t, "nt3")
	for name, store := range map[string]checkpoint.Store{
		"the default store":  nil,
		"a memory store":     checkpoint.NewCASMemStore(),
		"a manifestless one": struct{ checkpoint.Store }{checkpoint.NewCASMemStore()},
	} {
		path := filepath.Join(t.TempDir(), "run.swtj")
		j, err := resilience.Create(path, resilience.Header{App: app.Name, Budget: 2})
		if err != nil {
			t.Fatal(err)
		}
		proposed := false
		cfg := Config{App: app, Store: store, Budget: 2, Seed: 1, Journal: j,
			Strategy: proposeSpy{evo.NewRegularizedEvolution(app.Space, 3, 2), &proposed}}
		if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "durable") {
			t.Errorf("journal on %s: err = %v, want a configuration error naming durable blobs", name, err)
		}
		cfg.Journal, cfg.Resume = nil, &resilience.Recovery{}
		if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "durable") {
			t.Errorf("resume on %s: err = %v, want a configuration error naming durable blobs", name, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if rec, err := resilience.Read(path); err != nil || len(rec.Records) != 0 || proposed {
			t.Errorf("%s: rejected run still proposed (%v) or journaled (%v, err %v)", name, proposed, rec, err)
		}
	}
}

// proposeSpy records whether the strategy was ever asked for a proposal.
type proposeSpy struct {
	evo.Strategy
	proposed *bool
}

func (s proposeSpy) Propose(rng *rand.Rand) evo.Proposal {
	*s.proposed = true
	return s.Strategy.Propose(rng)
}

// TestResumeRejectsCorruptObject: a resume whose store holds a damaged
// object for a mid-journal candidate fails loudly at that candidate's record,
// naming it, and trains nothing. The three kinds of damage are caught by
// three different checks: a flipped verbatim byte by the object's CRC, a
// well-formed object of another stream renamed into place by the hash, and a
// deleted object file (without GC) as a missing blob.
func TestResumeRejectsCorruptObject(t *testing.T) {
	const budget = 6
	dir := t.TempDir()
	_, recs, storeDir := journaledCASRun(t, dir, budget, 0)
	rec, err := resilience.Read(filepath.Join(dir, "run.swtj"))
	if err != nil {
		t.Fatal(err)
	}
	// The victim is a mid-journal record whose object no other record names,
	// so the damage is met first at its own record.
	victim := -1
	for i := budget / 2; i < budget-1 && victim < 0; i++ {
		shared := false
		for j, er := range recs {
			shared = shared || (j != i && bytes.Equal(er.Manifest, recs[i].Manifest))
		}
		if !shared {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("every mid-journal record shares its object")
	}
	id := recs[victim].Record.ID
	hash := hex.EncodeToString(recs[victim].Manifest[len(recs[victim].Manifest)-checkpoint.HashSize:])
	objRel := filepath.Join("objects", hash+".obj")
	prefix := fmt.Sprintf("nas: restoring journaled checkpoint %d: ", id)

	// foreign is a valid object of another stream of the same size and
	// dtype: the victim's checkpoint with one weight changed, saved to a
	// scratch store.
	foreign := func(t *testing.T) []byte {
		src, err := checkpoint.NewCASDiskStore(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		m, err := src.Load(CandidateID(id))
		if err != nil {
			t.Fatal(err)
		}
		m.Groups[0].Tensors[0].Data[0] += 1
		scratchDir := filepath.Join(t.TempDir(), "scratch")
		scratch, err := checkpoint.NewCASDiskStore(scratchDir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scratch.Save("other", m); err != nil {
			t.Fatal(err)
		}
		objs, err := filepath.Glob(filepath.Join(scratchDir, "objects", "*.obj"))
		if err != nil || len(objs) != 1 {
			t.Fatalf("scratch store holds objects %v (err %v), want one", objs, err)
		}
		b, err := os.ReadFile(objs[0])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name    string
		damage  func(t *testing.T, path string)
		want    string
		missing bool
	}{
		{"a flipped verbatim byte", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-5] ^= 0x40 // the last verbatim byte, just before the CRC
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, fmt.Sprintf("checkpoint: adopting %q: checkpoint: object %s fails its CRC-32C", CandidateID(id), hash), false},
		{"another stream's object renamed into place", func(t *testing.T, path string) {
			if err := os.WriteFile(path, foreign(t), 0o644); err != nil {
				t.Fatal(err)
			}
		}, fmt.Sprintf("checkpoint: adopting %q: checkpoint: object %s content does not match its hash", CandidateID(id), hash), false},
		{"a deleted object file", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, fmt.Sprintf("checkpoint: blob missing: id %q (%s)", CandidateID(id), hash), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			damaged := filepath.Join(t.TempDir(), "blobs")
			copyTree(t, storeDir, damaged)
			tc.damage(t, filepath.Join(damaged, objRel))
			store, err := checkpoint.NewCASDiskStore(damaged)
			if err != nil {
				t.Fatal(err)
			}
			app := tinyApp(t, "nt3")
			spy := &submitSpy{}
			_, err = runWithin(t, 30*time.Second, context.Background(), Config{
				App:      app,
				Matcher:  core.LCS{},
				Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2),
				Store:    store,
				Budget:   budget,
				Seed:     11,
				Resume:   rec,
				Executor: spy,
			})
			if err == nil || err.Error() != prefix+tc.want {
				t.Fatalf("err = %v\nwant    %s", err, prefix+tc.want)
			}
			if got := errors.Is(err, checkpoint.ErrMissingBlob); got != tc.missing {
				t.Errorf("errors.Is(err, ErrMissingBlob) = %v, want %v", got, tc.missing)
			}
			if spy.n != 0 {
				t.Errorf("the failed resume submitted %d tasks", spy.n)
			}
		})
	}
}

// copyTree copies the regular files under src to the same paths under dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
