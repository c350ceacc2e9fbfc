package nas

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"swtnas/internal/apps"
	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/evo"
	"swtnas/internal/nn"
	"swtnas/internal/search"
	"swtnas/internal/tensor"
	"swtnas/internal/trace"
)

// badStrategy proposes an invalid architecture to exercise the scheduler's
// failure path.
type badStrategy struct{}

func (badStrategy) Propose(*rand.Rand) evo.Proposal {
	return evo.Proposal{Arch: search.Arch{99}, ParentID: -1}
}
func (badStrategy) Report(evo.Individual) {}

func TestRunSurfacesBuildErrors(t *testing.T) {
	app := tinyApp(t, "nt3")
	if _, err := Run(context.Background(), Config{App: app, Strategy: badStrategy{}, Budget: 3, Workers: 2, Seed: 1}); err == nil {
		t.Fatal("invalid proposals must fail the run")
	}
}

// phantomParentStrategy proposes a parent that was never evaluated, which
// must surface as a provider-load failure under a transfer scheme.
type phantomParentStrategy struct{ space *search.Space }

func (s phantomParentStrategy) Propose(rng *rand.Rand) evo.Proposal {
	return evo.Proposal{Arch: s.space.Random(rng), ParentID: 12345}
}
func (phantomParentStrategy) Report(evo.Individual) {}

func TestRunSurfacesMissingProvider(t *testing.T) {
	app := tinyApp(t, "nt3")
	_, err := Run(context.Background(), Config{
		App:      app,
		Strategy: phantomParentStrategy{space: app.Space},
		Matcher:  core.LCS{},
		Budget:   2,
		Seed:     1,
	})
	if err == nil {
		t.Fatal("missing provider checkpoint must fail the run")
	}
}

// failingStore injects storage faults.
type failingStore struct {
	checkpoint.Store
	failSave bool
}

func (s *failingStore) Save(id string, m *checkpoint.Model) (int64, error) {
	if s.failSave {
		return 0, fmt.Errorf("injected save failure")
	}
	return s.Store.Save(id, m)
}

func TestRunSurfacesCheckpointFailures(t *testing.T) {
	app := tinyApp(t, "nt3")
	store := &failingStore{Store: checkpoint.NewCASMemStore(), failSave: true}
	_, err := Run(context.Background(), Config{App: app, Store: store, Budget: 2, Seed: 1})
	if err == nil {
		t.Fatal("checkpoint save failure must fail the run")
	}
}

func TestSchemeName(t *testing.T) {
	if SchemeName(nil) != "baseline" {
		t.Fatalf("nil matcher = %q", SchemeName(nil))
	}
	if SchemeName(core.LP{}) != "LP" || SchemeName(core.LCS{}) != "LCS" {
		t.Fatal("matcher names wrong")
	}
}

// TestNonFiniteScoreIsFailedRecord: a training run that diverges to a NaN or
// Inf score takes the failure rule on any executor — recorded as Failed with
// reason "non-finite score", reported to the strategy as a Failed member,
// never ranked, never saved — instead of entering the population with its
// score: the store holds exactly the scored candidates. The divergence is real and specific to float32:
// inputs near the top of the float32 range overflow the forward pass into
// Inf-Inf (no surface exposes a learning rate to explode instead), while
// the same data trains to finite scores in float64.
func TestNonFiniteScoreIsFailedRecord(t *testing.T) {
	run := func(dt tensor.DType) (*trace.Trace, map[int]bool) {
		app := tinyApp(t, "uno")
		scaleInputs(app, 1e37)
		reported := map[int]bool{}
		store := checkpoint.NewCASMemStore()
		tr, err := Run(context.Background(), Config{
			App:      app,
			DType:    dt,
			Matcher:  core.LCS{},
			Strategy: reportSpy{Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2), Seen: reported},
			Store:    store,
			Budget:   6,
			Seed:     5,
		})
		if err != nil {
			t.Fatalf("%s: a diverged candidate must not abort the search: %v", dt, err)
		}
		if len(tr.Records) != 6 {
			t.Fatalf("%s: records = %d, want the full budget of 6", dt, len(tr.Records))
		}
		if saved := storedObjects(t, store); saved != len(tr.TopK(len(tr.Records))) {
			t.Fatalf("%s: the store holds %d objects for %d scored candidates", dt, saved, len(tr.TopK(len(tr.Records))))
		}
		return tr, reported
	}

	tr, reported := run(tensor.F32)
	failed := 0
	for _, r := range tr.Records {
		if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
			t.Fatalf("f32 record %+v: a non-finite score reached the trace", r)
		}
		if r.Failed {
			failed++
			if r.FailReason != "non-finite score" || r.Score != 0 {
				t.Fatalf("f32 record %+v: want reason \"non-finite score\" and a zero score", r)
			}
		}
		if failed, ok := reported[r.ID]; !ok || failed != r.Failed {
			t.Fatalf("candidate %d: failed=%v but reported=%v (failed=%v)", r.ID, r.Failed, ok, failed)
		}
	}
	// Architectures whose first op saturates (tanh, sigmoid) survive the
	// overflow; the seed and scale are chosen so that some do not, and some
	// do.
	if failed == 0 || failed == len(tr.Records) {
		t.Fatalf("%d of %d f32 candidates diverged; the test wants both kinds", failed, len(tr.Records))
	}
	if top := tr.TopK(len(tr.Records)); len(top) != len(tr.Records)-failed {
		t.Fatalf("top-K ranks %d of %d records with %d failed", len(top), len(tr.Records), failed)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("trace with diverged candidates does not serialize: %v", err)
	}

	tr, reported = run(tensor.F64)
	for _, r := range tr.Records {
		if failed, ok := reported[r.ID]; r.Failed || !ok || failed {
			t.Fatalf("f64 record %+v: the same data must train to a finite, reported score", r)
		}
	}
}

// TestNonFiniteWeightIsFailedRecord is the weights-only divergence: the
// accuracy of a classifier stays finite when its logits go NaN, so a
// candidate whose float32 training overflowed can score like any other. It
// takes the same failure rule as a non-finite score, with reason
// "non-finite weight": it is reported as a Failed member and not saved. The
// coordinator's leg of this rule is internal/cluster's
// TestDivergedCandidateIsTerminal.
func TestNonFiniteWeightIsFailedRecord(t *testing.T) {
	app := tinyApp(t, "nt3")
	scaleInputs(app, 2e37)
	reported := map[int]bool{}
	store := checkpoint.NewCASMemStore()
	tr, err := Run(context.Background(), Config{
		App:      app,
		DType:    tensor.F32,
		Matcher:  core.LCS{},
		Strategy: reportSpy{Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2), Seen: reported},
		Store:    store,
		Budget:   6,
		Seed:     5,
	})
	if err != nil {
		t.Fatalf("a diverged candidate must not abort the search: %v", err)
	}
	failed := 0
	for _, r := range tr.Records {
		if r.Failed {
			failed++
			if r.FailReason != "non-finite weight" || r.Score != 0 {
				t.Fatalf("record %+v: want reason \"non-finite weight\" and a zero score", r)
			}
		}
		if failed, ok := reported[r.ID]; !ok || failed != r.Failed {
			t.Fatalf("candidate %d: failed=%v but reported=%v (failed=%v)", r.ID, r.Failed, ok, failed)
		}
	}
	if failed == 0 || failed == len(tr.Records) {
		t.Fatalf("%d of %d candidates diverged; the test wants both kinds", failed, len(tr.Records))
	}
	if saved := storedObjects(t, store); saved != len(tr.Records)-failed {
		t.Fatalf("the store holds %d objects for %d scored candidates", saved, len(tr.Records)-failed)
	}
}

// scaleInputs multiplies every input of the app's dataset by s.
func scaleInputs(app *apps.App, s float64) {
	for _, split := range []*nn.Data{app.Dataset.Train, app.Dataset.Val} {
		for _, in := range split.Inputs {
			for i := range in.Data {
				in.Data[i] *= s
			}
		}
	}
}

// storedObjects returns how many checkpoints store holds.
func storedObjects(t *testing.T, store checkpoint.Store) int {
	t.Helper()
	ids, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	return len(ids)
}

// reportSpy records which candidates the scheduler reported to a strategy,
// each with its Failed flag.
type reportSpy struct {
	evo.Strategy
	Seen map[int]bool
}

func (s reportSpy) Report(ind evo.Individual) {
	s.Seen[ind.ID] = ind.Failed
	s.Strategy.Report(ind)
}
