package nas

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"swtnas/internal/checkpoint"
	"swtnas/internal/nn"
	"swtnas/internal/search"
	"swtnas/internal/tensor"
)

// TestStreamTrainsThePlainBits: a candidate the evaluator builds on a
// tensor.Stream, whose dropout layers draw their masks from it in bulk,
// trains to the score and the checkpoint bits of the same candidate built
// from a plain rand.New(rand.NewSource(seed)) and trained with the
// per-element rand.Float64 masks, for each app with dropout in its space, at
// both dtypes. The architecture turns dropout on at its largest rate on
// every dropout node (every other node of uno's mixed ones).
func TestStreamTrainsThePlainBits(t *testing.T) {
	for _, name := range []string{"mnist", "nt3", "uno"} {
		app := tinyApp(t, name)
		arch := app.Space.Random(randSource(5))
		dropouts := 0
		for i, n := range app.Space.Nodes {
			// mnist's and nt3's dropout nodes, and every other one of uno's
			// mixed nodes, whose last choice is a dropout too.
			last := len(n.Ops) - 1
			if strings.HasPrefix(n.Ops[last].Label, "Dropout") && (strings.HasPrefix(n.Name, "dropout") || i%2 == 1) {
				arch[i] = last
				dropouts++
			}
		}
		if dropouts == 0 {
			t.Fatalf("%s: no dropout node in the space", name)
		}
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			const seed = 11
			e := &Evaluator{App: app, Store: checkpoint.NewCASMemStore(), DType: dt}
			res := e.Evaluate(Task{ID: 0, Arch: arch, ParentID: -1, Seed: seed})
			if res.Err != nil {
				t.Fatalf("%s/%s: %v", name, dt, res.Err)
			}
			got, err := e.Store.Load(CandidateID(0))
			if err != nil {
				t.Fatal(err)
			}
			score, want := trainPlain(t, e, arch, seed)
			if math.Float64bits(res.Score) != math.Float64bits(score) {
				t.Fatalf("%s/%s: score %v on the stream, %v on the plain generator", name, dt, res.Score, score)
			}
			gb, err := got.Encode()
			if err != nil {
				t.Fatal(err)
			}
			wb, err := want.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) {
				t.Fatalf("%s/%s: the checkpoints differ", name, dt)
			}
		}
	}
}

// trainPlain builds arch from rand.New(rand.NewSource(seed)) and trains it
// as the evaluator does, that generator shuffling the epochs and drawing
// every mask one Float64 at a time.
func trainPlain(t *testing.T, e *Evaluator, arch search.Arch, seed int64) (float64, *checkpoint.Model) {
	t.Helper()
	rng := randSource(seed)
	net, err := e.App.Space.Build(arch, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := nn.FitConfig{Epochs: e.App.PartialEpochs, BatchSize: e.App.Space.BatchSize, RNG: rng}
	if e.DType == tensor.F32 {
		score, ckpt, err := e.fitF32(arch, net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return score, ckpt
	}
	h, err := nn.Fit(net, e.App.Space.Loss, e.App.Space.Metric, nn.NewAdam(), e.App.Dataset.Train, e.App.Dataset.Val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h.FinalScore(), checkpoint.FromNetwork(arch, h.FinalScore(), net)
}
