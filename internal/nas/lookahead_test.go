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
	"testing"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/data"
	"swtnas/internal/evo"
	"swtnas/internal/obs"
	"swtnas/internal/parallel"
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

	ahead, waited, rewound, issued int64
}

// runLookahead runs c at the given cores (KernelWorkers), restoring the
// kernel limit afterwards. progress, when non-nil, is the run's Progress;
// it receives the context's cancel.
func runLookahead(t *testing.T, c lookaheadCase, cores int, progress func(context.CancelFunc, Result)) lookaheadRun {
	t.Helper()
	defer parallel.SetWorkers(parallel.Workers())
	defer obs.SetEnabled(obs.SetEnabled(true))
	app := tinyApp(t, c.app)
	if c.scale != 0 {
		scaleInputs(app, c.scale)
	}
	dir := t.TempDir()
	store, err := checkpoint.NewCASDiskStore(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run.swtj")
	j, err := resilience.Create(path, resilience.Header{App: app.Name, Budget: c.budget})
	if err != nil {
		t.Fatal(err)
	}
	pop := cmp.Or(c.pop, 3)
	st := evo.NewRegularizedEvolution(app.Space, pop, 2)
	if c.pareto {
		st = evo.NewParetoEvolution(app.Space, pop, 2)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		App: app, DType: c.dt, Matcher: core.LCS{}, Strategy: st, Store: store,
		Budget: c.budget, Seed: c.seed, Journal: j, RetainTopK: c.retain, KernelWorkers: cores,
	}
	if progress != nil {
		cfg.Progress = func(r Result) { progress(cancel, r) }
	}
	ahead, waited, rewound, issued := mAhead.Value(), mWaited.Value(), mRewound.Value(), mPoolSubmitted.Value()
	tr, err := Run(ctx, cfg)
	out := lookaheadRun{tr: tr, store: store, dir: dir, err: err,
		ahead: mAhead.Value() - ahead, waited: mWaited.Value() - waited,
		rewound: mRewound.Value() - rewound, issued: mPoolSubmitted.Value() - issued}
	if tr == nil {
		t.Fatalf("%s at %d cores: %v", c.label(), cores, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := resilience.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	out.journal = rec.Records
	for i := range out.journal {
		untimed(&out.journal[i].Record)
	}
	for i := range tr.Records {
		untimed(&tr.Records[i])
	}
	out.objects = objectFiles(t, dir)
	return out
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
// parent choice. Every task issued either commits or is withdrawn.
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
			if run.issued != int64(len(run.tr.Records))+run.rewound {
				t.Fatalf("%s: %d tasks issued, %d committed and %d withdrawn", label, run.issued, len(run.tr.Records), run.rewound)
			}
			if cores == 1 {
				if run.ahead != 0 || run.waited != 0 || run.rewound != 0 {
					t.Fatalf("%s: one core ran ahead (ahead %d, waited %d, rewound %d)", label, run.ahead, run.waited, run.rewound)
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
		defer parallel.SetWorkers(parallel.Workers())
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

// TestLookaheadWithdrawsOnPendingFailure is TestNonFiniteScoreIsFailedRecord's
// diverging uno/f32 search on plain regularized evolution, with a population
// of 6 so that candidates run ahead while it fills: a candidate that fails
// never joins the population, so whatever was drawn while it was pending is
// withdrawn, its checkpoints deleted, and drawn again. The search is the
// one-core search, and no object outlives its candidate.
func TestLookaheadWithdrawsOnPendingFailure(t *testing.T) {
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
		label := fmt.Sprintf("%d cores", cores)
		run := runLookahead(t, c, cores, nil)
		sameRun(t, ref, run, label)
		checkStore(t, run, false, label)
		if run.rewound == 0 {
			t.Fatalf("%s: no task was withdrawn: no failure committed with a later candidate running", label)
		}
		if run.issued != int64(len(run.tr.Records))+run.rewound {
			t.Fatalf("%s: %d tasks issued, %d committed and %d withdrawn", label, run.issued, len(run.tr.Records), run.rewound)
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
	lost := run.issued - int64(n) - run.rewound
	if run.rewound != 0 || lost < 0 || lost > cores {
		t.Fatalf("%d tasks issued, %d committed, %d withdrawn: %d cancelled, want 0..%d", run.issued, n, run.rewound, lost, cores)
	}
	t.Logf("%d issued, %d committed, %d cancelled", run.issued, n, lost)
	waitForGoroutines(t)
}

// TestLookaheadCrashResumeBitIdentical: a crash can leave a later
// candidate's checkpoint in the store while an earlier one never finished;
// the journal holds only the id-order prefix before it. Resuming from that
// state gives the uninterrupted search, journal and objects included.
func TestLookaheadCrashResumeBitIdentical(t *testing.T) {
	const cores = 2
	c := lookaheadCase{app: "nt3", dt: tensor.F64, budget: 6, seed: 11}
	full := runLookahead(t, c, cores, nil)
	defer parallel.SetWorkers(parallel.Workers())
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
		tr, err := Run(context.Background(), Config{
			App: app, Matcher: core.LCS{}, Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2), Store: store,
			Budget: c.budget, Seed: c.seed, Journal: j, Resume: rec, KernelWorkers: cores,
		})
		if err != nil {
			t.Fatal(err)
		}
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
		sameRun(t, full, got, fmt.Sprintf("crash with %d journaled and %d saved", k, k+1))
	}
}
