package swtnas

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"swtnas/internal/apps"
	"swtnas/internal/data"
	"swtnas/internal/search"
)

const testSpaceJSON = `{
  "name": "toy-space",
  "input": [10, 10, 1],
  "output_units": 10,
  "nodes": [
    {"name": "d", "ops": [
      {"type": "identity"},
      {"type": "dense_act", "units": 16, "act": "relu"}
    ]}
  ]
}`

func TestSearchWithCustomSpaceJSON(t *testing.T) {
	res, err := Search(SearchOptions{
		App:       "mnist", // dataset provider for the custom space
		SpaceJSON: testSpaceJSON,
		Scheme:    "LCS",
		Budget:    6,
		Seed:      3,
		TrainN:    32, ValN: 16,
		PopulationSize: 2, SampleSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "toy-space" {
		t.Fatalf("app = %q, want the space name", res.App)
	}
	if len(res.Candidates) != 6 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
	if _, err := res.FullyTrain(res.Best(1)[0]); err != nil {
		t.Fatal(err)
	}
}

func TestSearchCustomSpaceValidation(t *testing.T) {
	// Mismatched input shape: nt3 inputs are (256, 1), the space wants
	// (10, 10, 1).
	if _, err := Search(SearchOptions{
		App: "nt3", SpaceJSON: testSpaceJSON, Budget: 1, TrainN: 16, ValN: 8,
	}); err == nil {
		t.Fatal("input-shape mismatch must error")
	}
	// Multi-input dataset cannot host a sequential custom space.
	if _, err := Search(SearchOptions{
		App: "uno", SpaceJSON: testSpaceJSON, Budget: 1, TrainN: 16, ValN: 8,
	}); err == nil {
		t.Fatal("multi-input dataset must error")
	}
	// Broken JSON.
	if _, err := Search(SearchOptions{
		App: "mnist", SpaceJSON: `{`, Budget: 1, TrainN: 16, ValN: 8,
	}); err == nil {
		t.Fatal("bad spec JSON must error")
	}
}

// TestCustomHeadRefusedBeforeTraining pins the head admission rule: a spec
// whose head the loss would index past (fewer logits than the dataset has
// classes under "ce") or misread (more than one output under "mae") passes
// Validate but fails the search with an error naming output_units and the
// class count, before any candidate trains.
func TestCustomHeadRefusedBeforeTraining(t *testing.T) {
	spec := func(loss string, units int) string {
		return fmt.Sprintf(`{"name": "head", "input": [10, 10, 1], "output_units": %d, "loss": %q,
  "nodes": [{"name": "d", "ops": [{"type": "dense", "units": 8}]}]}`, units, loss)
	}
	for _, c := range []struct {
		loss  string
		units int
		want  string // "" = admitted
	}{
		{"ce", 2, `output_units 2; loss "ce" needs a logit for each of dataset "mnist"'s 10 classes`},
		{"", 9, `output_units 9; loss "ce" needs a logit for each of dataset "mnist"'s 10 classes`},
		{"mae", 10, `output_units 10; loss "mae" scores one output against dataset "mnist"'s label (10 classes), so it needs 1`},
		{"ce", 10, ""},
		{"ce", 12, ""},
		{"mae", 1, ""},
	} {
		opt := SearchOptions{App: "mnist", SpaceJSON: spec(c.loss, c.units), Budget: 1, TrainN: 16, ValN: 8}
		if err := opt.Validate(); err != nil {
			t.Fatalf("%s/%d: Validate: %v", c.loss, c.units, err)
		}
		var evaluated int
		opt.Progress = func(Candidate) { evaluated++ }
		_, err := Search(opt)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s/%d: %v", c.loss, c.units, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want) || evaluated != 0):
			t.Errorf("%s/%d: err %v after %d candidates, want %q before any", c.loss, c.units, err, evaluated, c.want)
		}
	}
}

// TestOversizedCandidateRefusedBeforeAllocating pins the size bounds: a
// dense width of 1<<40 on mnist (weights past what any machine holds) and a
// convolution of 1<<20 filters (small weights, activations past
// search.MaxActivations) each fail Space.Build with an error naming the node,
// the op and the bound, having allocated at most 1 MiB; Search returns the
// dense case's error rather than a recovered panic.
func TestOversizedCandidateRefusedBeforeAllocating(t *testing.T) {
	spec := func(op string) string {
		return `{"name": "bomb", "input": [10, 10, 1], "output_units": 10, "nodes": [{"name": "big", "ops": [` + op + `]}]}`
	}
	for _, c := range []struct{ op, want string }{
		{`{"type": "dense", "units": 1099511627776}`, `node "big" choice "Dense(1099511627776)": 111050674405376 parameters on top of 0 pass the bound of 4194304 (search.MaxParams)`},
		{`{"type": "conv2d", "filters": 1048576, "kernel": 1}`, `node "big" choice "Conv2D(1048576, 1x1, valid)": 104857600 activation elements on top of 0 pass the bound of 131072 (search.MaxActivations)`},
	} {
		app, err := apps.New("mnist", 1, apps.Config{Data: data.Config{TrainN: 16, ValN: 8}, SpaceJSON: spec(c.op)})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = app.Space.Build(search.Arch{0}, rand.New(rand.NewSource(1)))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Build: %v, want %q", err, c.want)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Fatalf("Build allocated %d bytes before refusing", d)
		}
	}
	_, err := Search(SearchOptions{App: "mnist", SpaceJSON: spec(`{"type": "dense", "units": 1099511627776}`), Budget: 1, TrainN: 16, ValN: 8})
	if err == nil || !strings.Contains(err.Error(), "(search.MaxParams)") || strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Search: %v, want the bound error", err)
	}
}
