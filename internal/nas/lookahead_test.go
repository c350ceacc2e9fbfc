package nas

import (
	"cmp"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/evo"
	"swtnas/internal/obs"
	"swtnas/internal/resilience"
	"swtnas/internal/tensor"
	"swtnas/internal/trace"
)

// lookaheadCase is one journaled LCS search on a disk store, population 3
// (or pop) and sample 2.
type lookaheadCase struct {
	app    string
	dt     tensor.DType
	budget int
	seed   int64
	pop    int
	pareto bool
	retain int
	scale  float64 // multiplies every input when non-zero (makes f32 diverge)
}

// lookaheadRun is what a search left behind: its trace and journal, both
// with the timing fields zeroed, the object files of its store, and the
// lookahead and pool counters it moved.
type lookaheadRun struct {
	tr      *trace.Trace
	journal []resilience.EvalRecord
	objects []string
	store   *checkpoint.CASStore
	dir     string
	err     error

	lookaheadCounts
}

// lookaheadCounts are the lookahead counters and the pool's issued tasks.
type lookaheadCounts struct{ ahead, waited, issued int64 }

func countsNow() lookaheadCounts {
	return lookaheadCounts{mAhead.Value(), mWaited.Value(), mPoolSubmitted.Value()}
}

func (n lookaheadCounts) since(before lookaheadCounts) lookaheadCounts {
	return lookaheadCounts{n.ahead - before.ahead, n.waited - before.waited, n.issued - before.issued}
}

// lookaheadSearch is c set up to run: its config, with a journal on a disk
// store under dir, and the context its progress may cancel.
type lookaheadSearch struct {
	c      lookaheadCase
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	j      *resilience.Journal
	dir    string
}

// newLookaheadSearch sets c up on Run's own pool. progress, when non-nil,
// is the run's Progress; it receives the context's cancel.
func newLookaheadSearch(t *testing.T, c lookaheadCase, progress func(context.CancelFunc, Result)) *lookaheadSearch {
	t.Helper()
	app := tinyApp(t, c.app)
	if c.scale != 0 {
		scaleInputs(app, c.scale)
	}
	dir := t.TempDir()
	store, err := checkpoint.NewCASDiskStore(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	j, err := resilience.Create(filepath.Join(dir, "run.swtj"), resilience.Header{App: app.Name, Budget: c.budget})
	if err != nil {
		t.Fatal(err)
	}
	pop := cmp.Or(c.pop, 3)
	st := evo.NewRegularizedEvolution(app.Space, pop, 2)
	if c.pareto {
		st = evo.NewParetoEvolution(app.Space, pop, 2)
	}
	s := &lookaheadSearch{c: c, j: j, dir: dir}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	t.Cleanup(s.cancel)
	s.cfg = Config{
		App: app, DType: c.dt, Matcher: core.LCS{}, Strategy: st, Store: store,
		Budget: c.budget, Seed: c.seed, Journal: j, RetainTopK: c.retain,
	}
	if progress != nil {
		s.cfg.Progress = func(r Result) { progress(s.cancel, r) }
	}
	return s
}

// finish closes the search's journal and collects what the run left.
func (s *lookaheadSearch) finish(t *testing.T, tr *trace.Trace, err error, moved lookaheadCounts) lookaheadRun {
	t.Helper()
	if tr == nil {
		t.Fatalf("%s: %v", s.c.label(), err)
	}
	if err := s.j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, rerr := resilience.Read(filepath.Join(s.dir, "run.swtj"))
	if rerr != nil {
		t.Fatal(rerr)
	}
	out := lookaheadRun{tr: tr, journal: rec.Records, store: s.cfg.Store.(*checkpoint.CASStore), dir: s.dir, err: err, lookaheadCounts: moved}
	for i := range out.journal {
		untimed(&out.journal[i].Record)
	}
	for i := range tr.Records {
		untimed(&tr.Records[i])
	}
	out.objects = objectFiles(t, s.dir)
	return out
}

// runLookahead runs c at the given cores (KernelWorkers) on Run's own pool.
// progress, when non-nil, is the run's Progress; it receives the context's
// cancel.
func runLookahead(t *testing.T, c lookaheadCase, cores int, progress func(context.CancelFunc, Result)) lookaheadRun {
	t.Helper()
	defer obs.SetEnabled(obs.SetEnabled(true))
	s := newLookaheadSearch(t, c, progress)
	s.cfg.KernelWorkers = cores
	before := countsNow()
	tr, err := Run(s.ctx, s.cfg)
	return s.finish(t, tr, err, countsNow().since(before))
}

// runShared runs the cases at once, each a one-evaluator client of one
// SharedPool of the given slots; progress[i], when non-nil, is case i's. It
// returns their runs (each with no counters of its own) and the counters
// they moved together.
func runShared(t *testing.T, slots int, cases []lookaheadCase, progress ...func(context.CancelFunc, Result)) ([]lookaheadRun, lookaheadCounts) {
	t.Helper()
	defer obs.SetEnabled(obs.SetEnabled(true))
	pool := NewSharedPool(PoolConfig{Workers: slots})
	defer pool.Close()
	searches := make([]*lookaheadSearch, len(cases))
	for i, c := range cases {
		var p func(context.CancelFunc, Result)
		if i < len(progress) {
			p = progress[i]
		}
		searches[i] = newLookaheadSearch(t, c, p)
		client, err := pool.Register(ClientConfig{Tenant: c.label()})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		searches[i].cfg.Executor = client
	}
	trs, errs := make([]*trace.Trace, len(cases)), make([]error, len(cases))
	before := countsNow()
	var wg sync.WaitGroup
	for i, s := range searches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trs[i], errs[i] = Run(s.ctx, s.cfg)
		}()
	}
	wg.Wait()
	moved := countsNow().since(before)
	runs := make([]lookaheadRun, len(cases))
	for i, s := range searches {
		runs[i] = s.finish(t, trs[i], errs[i], lookaheadCounts{})
	}
	return runs, moved
}

func (c lookaheadCase) label() string {
	return fmt.Sprintf("%s/%s/pareto=%v/retain=%d", c.app, c.dt, c.pareto, c.retain)
}

// untimed zeroes a record's wall-clock fields.
func untimed(r *trace.Record) {
	r.TrainTime, r.CompletedAt, r.EvalTime, r.QueueWait = 0, 0, 0, 0
}

// objectFiles lists the object files of the disk store under dir.
func objectFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "blobs", "objects"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// checkStore fails unless the store holds exactly the checkpoints of the
// trace's scored candidates (all of them, or with GC those it kept) and no
// object that none of them names.
func checkStore(t *testing.T, run lookaheadRun, gc bool, label string) {
	t.Helper()
	ids, err := run.store.List()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, r := range run.tr.Records {
		if !r.Failed {
			want[CandidateID(r.ID)] = true
		}
	}
	named := map[string]bool{}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("%s: the store holds %s, which the trace never scored", label, id)
		}
		mf, err := run.store.EncodedManifest(id)
		if err != nil {
			t.Fatal(err)
		}
		named[hex.EncodeToString(mf[len(mf)-checkpoint.HashSize:])+".obj"] = true
	}
	if !gc && len(ids) != len(want) {
		t.Fatalf("%s: the store holds %d checkpoints for %d scored candidates", label, len(ids), len(want))
	}
	for _, f := range run.objects {
		if !named[f] {
			t.Fatalf("%s: object %s is named by no checkpoint", label, f)
		}
	}
}

// sameRun fails unless got is want's search: records (score bits
// included), journal and object files, timing aside.
func sameRun(t *testing.T, want, got lookaheadRun, label string) {
	t.Helper()
	if len(got.tr.Records) != len(want.tr.Records) {
		t.Fatalf("%s: %d records, want %d", label, len(got.tr.Records), len(want.tr.Records))
	}
	for i, r := range got.tr.Records {
		w := want.tr.Records[i]
		if math.Float64bits(r.Score) != math.Float64bits(w.Score) || !reflect.DeepEqual(r, w) {
			t.Fatalf("%s: record %d differs:\n  got  %+v\n  want %+v", label, i, r, w)
		}
	}
	if !reflect.DeepEqual(got.journal, want.journal) {
		t.Fatalf("%s: journals differ", label)
	}
	if !slices.Equal(got.objects, want.objects) {
		t.Fatalf("%s: object files differ:\n  got  %v\n  want %v", label, got.objects, want.objects)
	}
}

// TestLookaheadSameSearchAtAnyCoreCount: a one-evaluator search gives the
// same records, journal and checkpoint objects at 1, 2 and 4 cores — at one
// core nothing runs ahead, at more the next candidates train beside the
// current one — on every app at both dtypes, with GC on and with Pareto
// parent choice. Every task issued commits.
func TestLookaheadSameSearchAtAnyCoreCount(t *testing.T) {
	var cases []lookaheadCase
	for _, app := range []string{"nt3", "uno", "mnist", "cifar10"} {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			cases = append(cases, lookaheadCase{app: app, dt: dt, budget: 8, seed: 11})
		}
	}
	cases = append(cases,
		lookaheadCase{app: "nt3", dt: tensor.F64, budget: 10, seed: 3, retain: 2},
		lookaheadCase{app: "mnist", dt: tensor.F32, budget: 10, seed: 3, pareto: true},
	)
	var waited int64
	for _, c := range cases {
		var ref lookaheadRun
		for _, cores := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s at %d cores", c.label(), cores)
			run := runLookahead(t, c, cores, nil)
			if run.err != nil {
				t.Fatalf("%s: %v", label, run.err)
			}
			checkStore(t, run, c.retain > 0, label)
			if run.issued != int64(len(run.tr.Records)) {
				t.Fatalf("%s: %d tasks issued, %d committed", label, run.issued, len(run.tr.Records))
			}
			if cores == 1 {
				if run.ahead != 0 || run.waited != 0 {
					t.Fatalf("%s: one core ran ahead (ahead %d, waited %d)", label, run.ahead, run.waited)
				}
				ref = run
				continue
			}
			if run.ahead == 0 {
				t.Fatalf("%s: no candidate was issued ahead", label)
			}
			waited += run.waited
			sameRun(t, ref, run, label)
		}
	}
	if waited == 0 {
		t.Fatal("no proposal was ever held on a pending candidate: the waiting path went unexercised")
	}
}

// TestLookaheadHoldsLargeCandidates: a candidate runs ahead only while the
// trainable state in flight stays within lookaheadState. In a space whose
// every candidate is over it (a dense layer of 1536 or 2048 units: 5.4 or
// 7.3 MB of f64 weights, gradients and moments), only candidates issued
// before the first commit, whose sizes nothing predicts yet, run beside
// another: those of the population's first draws (before any member has
// reported, the next draft samples only pending candidates and waits).
// After that one runs at a time. Without the bound 6 of 12 run ahead.
func TestLookaheadHoldsLargeCandidates(t *testing.T) {
	const pop = 3
	const spec = `{"name": "wide", "input": [10, 10, 1], "output_units": 10,
  "nodes": [{"name": "d", "ops": [{"type": "dense", "units": 2048}, {"type": "dense", "units": 1536}]}]}`
	run := func(cores int) (*trace.Trace, int64) {
		defer obs.SetEnabled(obs.SetEnabled(true))
		app, err := apps.New("mnist", 1, apps.Config{Data: data.Config{TrainN: 32, ValN: 16}, SpaceJSON: spec})
		if err != nil {
			t.Fatal(err)
		}
		before := mAhead.Value()
		tr, err := Run(context.Background(), Config{
			App: app, Matcher: core.LCS{}, Strategy: evo.NewRegularizedEvolution(app.Space, pop, 2),
			Budget: 12, Seed: 5, KernelWorkers: cores,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr, mAhead.Value() - before
	}
	ref, _ := run(1)
	for _, cores := range []int{2, 4} {
		tr, ahead := run(cores)
		tracesEqual(t, ref, tr, fmt.Sprintf("%d cores", cores))
		if ahead < 1 || ahead > pop-1 {
			t.Fatalf("%d cores: %d candidates ran ahead, want 1..%d", cores, ahead, pop-1)
		}
	}
}

// TestLookaheadNonDraftingStrategies: a pre-filter search and a strategy
// that does not draft (a wrapper around regularized evolution) run through
// the same loop, but their drafts wait on every uncommitted candidate, so
// they give the same records (and filtered records) at 1, 2 and 4 cores,
// one candidate at a time: nothing issued ahead, and above one core every
// draft but the first held.
func TestLookaheadNonDraftingStrategies(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	const budget = 5
	for _, prefilter := range []bool{true, false} {
		var ref *trace.Trace
		for _, cores := range []int{1, 2, 4} {
			label := fmt.Sprintf("pre-filter %v at %d cores", prefilter, cores)
			cfg := newProxyConfig(t, checkpoint.NewCASMemStore())
			cfg.Budget, cfg.KernelWorkers = budget, cores
			if !prefilter {
				cfg.Prefilter, cfg.Strategy = nil, proposeSpy{cfg.Strategy, new(bool)}
			}
			before := countsNow()
			tr, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			moved := countsNow().since(before)
			if want := int64(min(cores-1, 1) * (budget - 1)); moved.ahead != 0 || moved.waited != want {
				t.Fatalf("%s: ahead %d, waited %d, want 0 and %d", label, moved.ahead, moved.waited, want)
			}
			for i := range tr.Records {
				untimed(&tr.Records[i])
			}
			if ref == nil {
				ref = tr
				continue
			}
			if !reflect.DeepEqual(tr.Records, ref.Records) {
				t.Fatalf("%s: records differ from one core's", label)
			}
			filteredEqual(t, tr.Filtered, ref.Filtered, label)
		}
		if prefilter && len(ref.Filtered) == 0 {
			t.Fatal("the pre-filter rejected nothing")
		}
	}
}

// TestLookaheadFailedCandidateIsAMember is TestNonFiniteScoreIsFailedRecord's
// diverging uno/f32 search on plain regularized evolution, with a population
// of 6 so that candidates run ahead while it fills: a candidate that fails
// joins the population like a scored one, so what was drawn while it was
// pending stands. At 2 and 4 cores, on Run's own pool and as a shared pool's
// client, the search is the one-core search, a later task was issued while a
// failing candidate was pending, every task issued commits, and no object
// outlives its candidate.
func TestLookaheadFailedCandidateIsAMember(t *testing.T) {
	c := lookaheadCase{app: "uno", dt: tensor.F32, budget: 8, seed: 5, pop: 6, scale: 1e37}
	ref := runLookahead(t, c, 1, nil)
	failed := 0
	for _, r := range ref.tr.Records {
		if r.Failed {
			failed++
		}
	}
	if failed == 0 || failed == len(ref.tr.Records) {
		t.Fatalf("%d of %d candidates diverged; the test wants both kinds", failed, len(ref.tr.Records))
	}
	for _, cores := range []int{2, 4} {
		for _, shared := range []bool{false, true} {
			label := fmt.Sprintf("%d cores, shared pool %v", cores, shared)
			// A failure's Progress runs as it commits: a task past its id
			// issued by then was issued while it was pending.
			before, overtaken := mPoolSubmitted.Value(), false
			progress := func(_ context.CancelFunc, r Result) {
				if r.Failed && mPoolSubmitted.Value()-before > int64(r.ID)+1 {
					overtaken = true
				}
			}
			var run lookaheadRun
			if shared {
				runs, moved := runShared(t, cores, []lookaheadCase{c}, progress)
				run, run.lookaheadCounts = runs[0], moved
			} else {
				run = runLookahead(t, c, cores, progress)
			}
			sameRun(t, ref, run, label)
			checkStore(t, run, false, label)
			if !overtaken {
				t.Fatalf("%s: no task was issued while a failing candidate was pending", label)
			}
			if run.issued != int64(len(run.tr.Records)) {
				t.Fatalf("%s: %d tasks issued, %d committed", label, run.issued, len(run.tr.Records))
			}
		}
	}
}

// TestLookaheadCancelCommitsPrefix: a search cancelled while candidates run
// ahead returns an id-order prefix of the uncancelled search — every
// candidate that completed with no earlier one lost — and what the
// candidates past its end saved is deleted. Every task issued commits or is
// lost to the cancellation, at most one per core.
func TestLookaheadCancelCommitsPrefix(t *testing.T) {
	const cores = 4
	c := lookaheadCase{app: "nt3", dt: tensor.F64, budget: 20, seed: 7, pop: 6}
	ref := runLookahead(t, c, 1, nil)
	run := runLookahead(t, c, cores, func(cancel context.CancelFunc, r Result) {
		if r.ID == 1 {
			cancel()
		}
	})
	if !errors.Is(run.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", run.err)
	}
	n := len(run.tr.Records)
	if n < 2 || n == c.budget {
		t.Fatalf("cancelled search committed %d records", n)
	}
	for i, r := range run.tr.Records {
		if r.ID != i || !reflect.DeepEqual(r, ref.tr.Records[i]) {
			t.Fatalf("record %d = %+v, want the uncancelled search's %+v", i, r, ref.tr.Records[i])
		}
	}
	if !reflect.DeepEqual(run.journal, ref.journal[:n]) {
		t.Fatal("the journal is not the uncancelled search's prefix")
	}
	checkStore(t, run, false, "cancelled")
	lost := run.issued - int64(n)
	if lost < 0 || lost > cores {
		t.Fatalf("%d tasks issued, %d committed: %d cancelled, want 0..%d", run.issued, n, lost, cores)
	}
	t.Logf("%d issued, %d committed, %d cancelled", run.issued, n, lost)
	waitForGoroutines(t)
}

// TestLookaheadCrashResumeBitIdentical: a crash can leave a later
// candidate's checkpoint in the store while an earlier one never finished;
// the journal holds only the id-order prefix before it. Resuming from that
// state gives the uninterrupted search, journal and objects included — on
// Run's own pool, and with the search a client of a shared one — and the
// resumed search looks ahead once its replay is done.
func TestLookaheadCrashResumeBitIdentical(t *testing.T) {
	const cores = 2
	c := lookaheadCase{app: "nt3", dt: tensor.F64, budget: 6, seed: 11}
	full := runLookahead(t, c, cores, nil)
	runs, moved := runShared(t, cores, []lookaheadCase{c})
	sameRun(t, full, runs[0], "on a shared pool")
	if moved.ahead == 0 {
		t.Fatal("nothing ran ahead on the shared pool")
	}
	defer obs.SetEnabled(obs.SetEnabled(true))
	var resumedAhead int64
	for _, shared := range []bool{false, true} {
		for k := 0; k < c.budget-1; k++ {
			dir := t.TempDir()
			copyTree(t, filepath.Join(full.dir, "blobs"), filepath.Join(dir, "blobs"))
			// Candidate k never finished; k+1 did; nothing later had started.
			for id := k; id < c.budget; id++ {
				if id != k+1 {
					os.Remove(filepath.Join(dir, "blobs", "manifests", CandidateID(id)+".swtm"))
				}
			}
			path := filepath.Join(dir, "run.swtj")
			j, err := resilience.Create(path, resilience.Header{App: "nt3", Budget: c.budget})
			if err != nil {
				t.Fatal(err)
			}
			for _, er := range full.journal[:k] {
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
			store, err := checkpoint.NewCASDiskStore(filepath.Join(dir, "blobs"))
			if err != nil {
				t.Fatal(err)
			}
			app := tinyApp(t, "nt3")
			cfg := Config{
				App: app, Matcher: core.LCS{}, Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2), Store: store,
				Budget: c.budget, Seed: c.seed, Journal: j, Resume: rec, KernelWorkers: cores,
			}
			var pool *SharedPool
			if shared {
				pool = NewSharedPool(PoolConfig{Workers: cores})
				client, err := pool.Register(ClientConfig{})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Executor, cfg.KernelWorkers = client, 0
			}
			before := countsNow()
			tr, err := Run(context.Background(), cfg)
			if pool != nil {
				pool.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			resumedAhead += countsNow().since(before).ahead
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			final, err := resilience.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			got := lookaheadRun{tr: tr, journal: final.Records, objects: objectFiles(t, dir)}
			for i := range got.tr.Records {
				untimed(&got.tr.Records[i])
			}
			for i := range got.journal {
				untimed(&got.journal[i].Record)
			}
			sameRun(t, full, got, fmt.Sprintf("shared=%v: crash with %d journaled and %d saved", shared, k, k+1))
		}
	}
	if resumedAhead == 0 {
		t.Fatal("no resumed search issued a candidate ahead after its replay")
	}
}

// sharedCases are the two searches the shared-pool tests run side by side:
// nt3/f64 (GC off, every checkpoint kept) and mnist/f32 with Pareto parent
// choice, both journaled on a disk store.
var sharedCases = []lookaheadCase{
	{app: "nt3", dt: tensor.F64, budget: 10, seed: 3},
	{app: "mnist", dt: tensor.F32, budget: 10, seed: 3, pareto: true},
}

// TestLookaheadSharedPoolTwoSearches: two one-evaluator searches run at once
// as clients of one 2-slot SharedPool, where each looks ahead on the pool's
// slots. Each is its one-at-a-time search on a private pool — records with
// score bits, journal and checkpoint objects — and every task the two
// issued commits.
func TestLookaheadSharedPoolTwoSearches(t *testing.T) {
	var refs []lookaheadRun
	for _, c := range sharedCases {
		refs = append(refs, runLookahead(t, c, 1, nil))
	}
	runs, moved := runShared(t, 2, sharedCases)
	committed := int64(0)
	for i, run := range runs {
		label := sharedCases[i].label() + " on a shared pool"
		if run.err != nil {
			t.Fatalf("%s: %v", label, run.err)
		}
		sameRun(t, refs[i], run, label)
		checkStore(t, run, false, label)
		committed += int64(len(run.tr.Records))
	}
	if moved.ahead == 0 {
		t.Fatal("no candidate was issued ahead on the shared pool")
	}
	if moved.issued != committed {
		t.Fatalf("%d tasks issued, %d committed", moved.issued, committed)
	}
	t.Logf("%d issued, %d ahead, %d waited", moved.issued, moved.ahead, moved.waited)
}

// TestLookaheadSharedPoolCancelOne: cancelling one of two searches that
// share a pool, while candidates run ahead, leaves the other's search as it
// was and no orphan object in either store; the cancelled one keeps an
// id-order prefix of its search, at most one task a slot lost.
func TestLookaheadSharedPoolCancelOne(t *testing.T) {
	const slots = 2
	ref := runLookahead(t, sharedCases[1], 1, nil)
	runs, moved := runShared(t, slots, sharedCases, func(cancel context.CancelFunc, r Result) {
		if r.ID == 1 {
			cancel()
		}
	})
	cut, other := runs[0], runs[1]
	if !errors.Is(cut.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", cut.err)
	}
	if other.err != nil {
		t.Fatalf("the search not cancelled: %v", other.err)
	}
	sameRun(t, ref, other, "beside a cancelled search")
	checkStore(t, other, false, "beside a cancelled search")
	full := runLookahead(t, sharedCases[0], 1, nil)
	n := len(cut.tr.Records)
	if n < 2 || n == sharedCases[0].budget {
		t.Fatalf("cancelled search committed %d records", n)
	}
	for i, r := range cut.tr.Records {
		if !reflect.DeepEqual(r, full.tr.Records[i]) {
			t.Fatalf("record %d = %+v, want the uncancelled search's %+v", i, r, full.tr.Records[i])
		}
	}
	if !reflect.DeepEqual(cut.journal, full.journal[:n]) {
		t.Fatal("the journal is not the uncancelled search's prefix")
	}
	checkStore(t, cut, false, "cancelled")
	if moved.ahead == 0 {
		t.Fatal("no candidate was issued ahead on the shared pool")
	}
	lost := moved.issued - int64(n+len(other.tr.Records))
	if lost < 0 || lost > slots {
		t.Fatalf("%d tasks issued, %d committed: %d cancelled, want 0..%d", moved.issued, n+len(other.tr.Records), lost, slots)
	}
	waitForGoroutines(t)
}
