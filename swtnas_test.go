package swtnas

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"swtnas/internal/checkpoint"
)

func tinySearch(t *testing.T, scheme string) *Result {
	t.Helper()
	res, err := Search(SearchOptions{
		App: "nt3", Scheme: scheme, Budget: 10, Seed: 5,
		TrainN: 24, ValN: 12, PopulationSize: 4, SampleSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestApplicationsAndSchemes(t *testing.T) {
	if len(Applications()) != 4 {
		t.Fatalf("Applications = %v", Applications())
	}
	if len(Schemes()) != 3 {
		t.Fatalf("Schemes = %v", Schemes())
	}
}

func TestSearchValidation(t *testing.T) {
	if _, err := Search(SearchOptions{Budget: 1}); err == nil {
		t.Fatal("missing app must error")
	}
	if _, err := Search(SearchOptions{App: "nt3", Scheme: "nope", Budget: 1}); err == nil {
		t.Fatal("unknown scheme must error")
	}
	if _, err := Search(SearchOptions{App: "nt3", Budget: 0}); err == nil {
		t.Fatal("zero budget must error")
	}
	if _, err := Search(SearchOptions{App: "nope", Budget: 1}); err == nil {
		t.Fatal("unknown app must error")
	}
}

func TestSearchEndToEnd(t *testing.T) {
	res := tinySearch(t, "LCS")
	if res.App != "nt3" || res.Scheme != "LCS" {
		t.Fatalf("header = %s/%s", res.App, res.Scheme)
	}
	if len(res.Candidates) != 10 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
	best := res.Best(3)
	if len(best) != 3 {
		t.Fatalf("best = %d", len(best))
	}
	if best[0].Score < best[1].Score || best[1].Score < best[2].Score {
		t.Fatalf("best not sorted by score: %v %v %v", best[0].Score, best[1].Score, best[2].Score)
	}
	desc, err := res.DescribeArch(best[0].Arch)
	if err != nil || desc == "" {
		t.Fatalf("describe: %q %v", desc, err)
	}
	var buf bytes.Buffer
	if err := res.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"records\"") {
		t.Fatal("trace JSON missing records")
	}
}

// TestSearchProgressStreams checks the Progress callback sees exactly the
// candidates the Result ends up holding, in the same completion order.
func TestSearchProgressStreams(t *testing.T) {
	var streamed []Candidate
	res, err := Search(SearchOptions{
		App: "nt3", Budget: 6, Seed: 7, Workers: 2,
		TrainN: 24, ValN: 12, PopulationSize: 4, SampleSize: 2,
		Progress: func(c Candidate) { streamed = append(streamed, c) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Candidates) {
		t.Fatalf("progress streamed %d candidates, result has %d", len(streamed), len(res.Candidates))
	}
	for i, c := range res.Candidates {
		if streamed[i].ID != c.ID || streamed[i].Score != c.Score {
			t.Fatalf("streamed[%d] = %+v, result candidate = %+v", i, streamed[i], c)
		}
	}
}

// TestSearchContextCancellation cancels mid-search and verifies the partial
// Result contract: SearchContext returns promptly with context.Canceled, the
// completed candidates are usable through the normal Result API, and
// Search's signature keeps working unchanged.
func TestSearchContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	res, err := SearchContext(ctx, SearchOptions{
		App: "nt3", Scheme: "LCS", Budget: 1000, Seed: 8, Workers: 2,
		TrainN: 24, ValN: 12, PopulationSize: 4, SampleSize: 2,
		Progress: func(c Candidate) {
			if c.ID >= 0 { // every completion counts; cancel on the first
				cancel()
			}
		},
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled search must return the partial Result")
	}
	if len(res.Candidates) == 0 || len(res.Candidates) >= 1000 {
		t.Fatalf("partial result has %d candidates", len(res.Candidates))
	}
	// 1000 tiny candidates would still take far longer than the handful
	// completed before cancellation; a loose bound catches a search that
	// ignored the context without making the test timing-sensitive.
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled search took %v", elapsed)
	}
	best := res.Best(1)
	if len(best) != 1 {
		t.Fatalf("partial result Best(1) = %d candidates", len(best))
	}
	if _, err := res.DescribeArch(best[0].Arch); err != nil {
		t.Fatalf("partial result DescribeArch: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteTrace(&buf); err != nil {
		t.Fatalf("partial result WriteTrace: %v", err)
	}
	// A pre-cancelled context yields an empty partial result.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	res2, err := SearchContext(pre, SearchOptions{
		App: "nt3", Budget: 5, Seed: 8, TrainN: 24, ValN: 12,
		PopulationSize: 4, SampleSize: 2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}
	if res2 == nil || len(res2.Candidates) != 0 {
		t.Fatalf("pre-cancelled result = %+v", res2)
	}
}

func TestFullyTrain(t *testing.T) {
	res := tinySearch(t, "LP")
	best := res.Best(1)[0]
	full, err := res.FullyTrain(best)
	if err != nil {
		t.Fatal(err)
	}
	if full.Epochs < 1 || full.Epochs > 20 {
		t.Fatalf("epochs = %d", full.Epochs)
	}
	// Phase 2 is a function of the checkpoint and the candidate's id: build
	// seed id+1, fit seed id+2.
	skipUnlessDigestHost(t)
	if full.Epochs != 11 || !full.EarlyStopped || math.Float64bits(full.Score) != 0x3fed555555555555 {
		t.Fatalf("candidate %d fully trained to %d epochs, early stop %v, score %#x; want 11, true, 0x3fed555555555555",
			best.ID, full.Epochs, full.EarlyStopped, math.Float64bits(full.Score))
	}
}

func TestDiskCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	res, err := Search(SearchOptions{
		App: "nt3", Budget: 4, Seed: 6, TrainN: 24, ValN: 12,
		PopulationSize: 2, SampleSize: 2, CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.FullyTrain(res.Best(1)[0]); err != nil {
		t.Fatalf("full training from disk checkpoints: %v", err)
	}
}

// TestDiskCheckpointDirVerifiedOnFirstRead: a store directory read back
// without a journal has had nothing adopted, so a checkpoint's bytes are
// checked against their content hash the first time they are loaded. After a
// clean search into a CheckpointDir, one flipped byte in one object file must
// fail exactly that candidate's Load, naming its id and the object's hash,
// and leave every other candidate loadable.
func TestDiskCheckpointDirVerifiedOnFirstRead(t *testing.T) {
	dir := t.TempDir()
	if _, err := Search(SearchOptions{
		App: "nt3", Scheme: "LCS", Budget: 4, Seed: 6, TrainN: 24, ValN: 12,
		PopulationSize: 2, SampleSize: 2, CheckpointDir: dir,
	}); err != nil {
		t.Fatal(err)
	}
	objects, err := filepath.Glob(filepath.Join(dir, "objects", "*.obj"))
	if err != nil || len(objects) != 4 {
		t.Fatalf("objects after a budget-4 search: %v (err %v), want 4 files", objects, err)
	}
	b, err := os.ReadFile(objects[1])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(objects[1], b, 0o644); err != nil {
		t.Fatal(err)
	}
	hash := strings.TrimSuffix(filepath.Base(objects[1]), ".obj")

	store, err := checkpoint.NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := store.List()
	if err != nil || len(ids) != 4 {
		t.Fatalf("reopened store lists %v (err %v), want 4 ids", ids, err)
	}
	failed := 0
	for _, id := range ids {
		if _, err := store.Load(id); err != nil {
			failed++
			if !strings.Contains(err.Error(), strconv.Quote(id)) || !strings.Contains(err.Error(), hash) {
				t.Errorf("Load(%s) over the flipped object: %v, want an error naming the id and %s", id, err, hash)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d of 4 candidates failed to load after one flipped byte, want exactly 1", failed)
	}
}

func TestMatcherHelpers(t *testing.T) {
	a := [][]int{{3, 3, 1, 8}, {8}, {128, 2}}
	b := [][]int{{3, 3, 1, 8}, {16}, {8}, {128, 2}}
	if got := LongestPrefix(a, b); got != 1 {
		t.Fatalf("LP = %d, want 1", got)
	}
	if got := LongestCommonSubsequence(a, b); got != 3 {
		t.Fatalf("LCS = %d, want 3", got)
	}
	if d := ArchDistance([]int{1, 2, 3}, []int{0, 2, 3}); d != 1 {
		t.Fatalf("d = %d, want 1", d)
	}
}

// TestWeightTransferBeatsScratchOnAverage is the library-level statement of
// the paper's headline claim at miniature scale: with the same budget and
// seed, the LCS scheme's later candidates score at least as well on average
// as the baseline's.
func TestWeightTransferBeatsScratchOnAverage(t *testing.T) {
	run := func(scheme string) float64 {
		res, err := Search(SearchOptions{
			App: "uno", Scheme: scheme, Budget: 24, Seed: 9,
			TrainN: 96, ValN: 48, PopulationSize: 8, SampleSize: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		n := 0
		for _, c := range res.Candidates[len(res.Candidates)/2:] {
			sum += c.Score
			n++
		}
		return sum / float64(n)
	}
	base, lcs := run("baseline"), run("LCS")
	if lcs < base-0.05 {
		t.Fatalf("LCS tail mean %.4f clearly below baseline %.4f", lcs, base)
	}
}

func TestSummarize(t *testing.T) {
	res := tinySearch(t, "baseline")
	var sb strings.Builder
	if err := res.Summarize(res.Best(1)[0], &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "total params:") {
		t.Fatalf("summary output:\n%s", sb.String())
	}
}
