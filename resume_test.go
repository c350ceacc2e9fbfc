package swtnas

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"swtnas/internal/resilience"
)

func journalOpts(path string) SearchOptions {
	return SearchOptions{
		App: "nt3", Scheme: "LCS", Budget: 6, Seed: 5,
		TrainN: 24, ValN: 12, PopulationSize: 4, SampleSize: 2,
		JournalPath: path,
	}
}

// TestSearchResumeMatchesUninterrupted is the public-API crash-resume
// guarantee: a journaled search cancelled partway, then resumed with the
// same options, ends with the same candidates and top-K as one that never
// stopped.
func TestSearchResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()

	fullPath := filepath.Join(dir, "full.swtj")
	full, err := Search(journalOpts(fullPath))
	if err != nil {
		t.Fatal(err)
	}

	// "Crash" a second run after 2 candidates via context cancellation.
	cutPath := filepath.Join(dir, "cut.swtj")
	ctx, cancel := context.WithCancel(context.Background())
	opts := journalOpts(cutPath)
	n := 0
	opts.Progress = func(Candidate) {
		n++
		if n == 2 {
			cancel()
		}
	}
	partial, err := SearchContext(ctx, opts)
	if err == nil {
		t.Fatal("cancelled search must return its context error")
	}
	if partial == nil || len(partial.Candidates) >= 6 {
		t.Fatalf("partial result = %+v", partial)
	}

	// Resume to completion.
	opts = journalOpts(cutPath)
	opts.Resume = true
	resumed, err := Search(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Candidates) != 6 {
		t.Fatalf("resumed candidates = %d, want 6", len(resumed.Candidates))
	}
	if resumed.Summary.Resumed != len(partial.Candidates) {
		t.Fatalf("Summary.Resumed = %d, want %d (the journaled prefix)",
			resumed.Summary.Resumed, len(partial.Candidates))
	}
	for i := range full.Candidates {
		a, b := full.Candidates[i], resumed.Candidates[i]
		if a.ID != b.ID || a.Score != b.Score || fmt.Sprint(a.Arch) != fmt.Sprint(b.Arch) ||
			a.TransferredLayers != b.TransferredLayers {
			t.Fatalf("candidate %d differs:\n  full    %+v\n  resumed %+v", i, a, b)
		}
	}
	fb, rb := full.Best(3), resumed.Best(3)
	for i := range fb {
		if fb[i].ID != rb[i].ID || fb[i].Score != rb[i].Score {
			t.Fatalf("top-K differs at %d: %+v vs %+v", i, fb[i], rb[i])
		}
	}
	// The resumed run's checkpoints must support phase two.
	if _, err := resumed.FullyTrain(rb[0]); err != nil {
		t.Fatalf("FullyTrain after resume: %v", err)
	}
}

func TestSearchResumeValidatesOptions(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.swtj")
	if _, err := Search(journalOpts(path)); err != nil {
		t.Fatal(err)
	}

	opts := journalOpts(path)
	opts.Resume = true
	opts.Seed = 6 // drifted option
	if _, err := Search(opts); err == nil {
		t.Fatal("resume with a different seed must fail")
	}

	opts = journalOpts("")
	opts.Resume = true
	if _, err := Search(opts); err == nil {
		t.Fatal("Resume without JournalPath must fail")
	}
}

// tinySpec is a one-node mnist space whose dense widths the resume tests
// change under the same name.
func tinySpec(w0, w1 int) string {
	return fmt.Sprintf(`{"name": "tiny", "input": [10, 10, 1], "output_units": 10,
  "nodes": [{"name": "d", "ops": [{"type": "dense", "units": %d}, {"type": "dense", "units": %d}]}]}`, w0, w1)
}

func tinyJournalOpts(path, spec string) SearchOptions {
	return SearchOptions{
		App: "mnist", SpaceJSON: spec, Scheme: "LCS", Budget: 4, Seed: 5,
		TrainN: 24, ValN: 12, PopulationSize: 2, SampleSize: 2,
		JournalPath: path,
	}
}

// TestResumeRefusesChangedCustomSpace pins the header's space identity: a
// custom space is journaled as its name plus a digest of its compiled
// definition, so resuming under a spec changed behind the same name fails
// on the "space" field before anything is replayed or trained, while a
// built-in space keeps its bare name.
func TestResumeRefusesChangedCustomSpace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.swtj")
	if _, err := Search(tinyJournalOpts(path, tinySpec(8, 16))); err != nil {
		t.Fatal(err)
	}
	rec, err := resilience.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rec.Header.Space, "tiny@") || len(rec.Header.Space) != len("tiny@")+16 {
		t.Fatalf("journaled space = %q, want tiny@ and a 16-digit digest", rec.Header.Space)
	}

	opts := tinyJournalOpts(path, tinySpec(64, 128))
	opts.Resume = true
	seen := 0
	opts.Progress = func(Candidate) { seen++ }
	res, err := Search(opts)
	var mismatch *resilience.HeaderMismatchError
	if !errors.As(err, &mismatch) || mismatch.Field != "space" || res != nil || seen != 0 {
		t.Fatalf("resume under a changed spec: res %v, err %v after %d candidates; want a space mismatch before any", res, err, seen)
	}

	builtin := filepath.Join(dir, "nt3.swtj")
	if _, err := Search(journalOpts(builtin)); err != nil {
		t.Fatal(err)
	}
	if rec, err := resilience.Read(builtin); err != nil || rec.Header.Space != "nt3" {
		t.Fatalf("built-in journal space = %q (%v), want the bare name", rec.Header.Space, err)
	}
}

// TestResumeCustomSpaceBitIdentical: an unchanged spec resumes a cut
// journal to the uninterrupted run's candidates, bit for bit.
func TestResumeCustomSpaceBitIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(8, 16)
	full, err := Search(tinyJournalOpts(filepath.Join(dir, "full.swtj"), spec))
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(dir, "cut.swtj")
	ctx, cancel := context.WithCancel(context.Background())
	opts := tinyJournalOpts(cutPath, spec)
	opts.Progress = func(Candidate) { cancel() }
	if _, err := SearchContext(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cut run: %v", err)
	}
	opts = tinyJournalOpts(cutPath, spec)
	opts.Resume = true
	resumed, err := Search(opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Summary.Resumed == 0 || len(resumed.Candidates) != len(full.Candidates) {
		t.Fatalf("resumed %d of %d candidates, want a replayed prefix and the full budget", resumed.Summary.Resumed, len(resumed.Candidates))
	}
	for i, a := range full.Candidates {
		b := resumed.Candidates[i]
		if a.ID != b.ID || a.Score != b.Score || a.Params != b.Params || a.ParentID != b.ParentID ||
			fmt.Sprint(a.Arch) != fmt.Sprint(b.Arch) || a.TransferredLayers != b.TransferredLayers {
			t.Fatalf("candidate %d differs:\n  full    %+v\n  resumed %+v", i, a, b)
		}
	}
}
