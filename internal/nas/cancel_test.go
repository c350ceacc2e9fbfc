package nas

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"swtnas/internal/evo"
)

// waitForGoroutines polls until no evaluator slot (SharedPool.worker) is
// alive, failing the test after a generous grace period. It counts slots, not
// every goroutine: the kernel pool (internal/parallel) grows workers during a
// search and keeps them for the process.
func waitForGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		slots := strings.Count(string(buf[:runtime.Stack(buf, true)]), "nas.(*SharedPool).worker(")
		if slots == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("evaluator goroutines leaked: %d slots alive", slots)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunPreCancelledContext: a context that is already cancelled must yield
// an empty partial trace and context.Canceled without evaluating anything.
func TestRunPreCancelledContext(t *testing.T) {
	app := tinyApp(t, "nt3")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, err := Run(ctx, Config{
		App:      app,
		Strategy: evo.NewRegularizedEvolution(app.Space, 4, 2),
		Budget:   10,
		Workers:  3,
		Seed:     21,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tr == nil {
		t.Fatal("cancelled run must still return its (empty) partial trace")
	}
	if len(tr.Records) != 0 {
		t.Fatalf("pre-cancelled run evaluated %d candidates", len(tr.Records))
	}
	waitForGoroutines(t)
}

// TestRunCancelMidSearch cancels after the second completed candidate and
// checks the three cancellation guarantees: prompt return, a partial trace
// holding every candidate completed before (or in flight at) cancellation,
// and no evaluator goroutines left behind.
func TestRunCancelMidSearch(t *testing.T) {
	app := tinyApp(t, "nt3")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	completed := 0
	tr, err := Run(ctx, Config{
		App:      app,
		Strategy: evo.NewRegularizedEvolution(app.Space, 4, 2),
		Budget:   50,
		Workers:  2,
		Seed:     22,
		Progress: func(Result) {
			completed++
			if completed == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tr == nil {
		t.Fatal("cancelled run must return a partial trace")
	}
	// At least the two candidates that triggered the cancel; at most those
	// plus the evaluations already in flight (one per worker).
	if len(tr.Records) < 2 || len(tr.Records) > 2+2 {
		t.Fatalf("partial trace has %d records, want 2..4", len(tr.Records))
	}
	if len(tr.Records) == 50 {
		t.Fatal("cancellation did not stop the search early")
	}
	waitForGoroutines(t)
}

// TestRunProgressStreams asserts the Progress callback fires once per
// candidate, in completion order, with the same data the trace records.
func TestRunProgressStreams(t *testing.T) {
	app := tinyApp(t, "nt3")
	var seen []Result
	tr, err := Run(context.Background(), Config{
		App:      app,
		Strategy: evo.NewRegularizedEvolution(app.Space, 4, 2),
		Budget:   6,
		Workers:  2,
		Seed:     23,
		Progress: func(r Result) { seen = append(seen, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(tr.Records) {
		t.Fatalf("progress fired %d times for %d records", len(seen), len(tr.Records))
	}
	for i, r := range tr.Records {
		if seen[i].ID != r.ID || seen[i].Score != r.Score || seen[i].CompletedAt != r.CompletedAt {
			t.Fatalf("progress[%d] = {ID:%d Score:%v At:%v}, record = {ID:%d Score:%v At:%v}",
				i, seen[i].ID, seen[i].Score, seen[i].CompletedAt, r.ID, r.Score, r.CompletedAt)
		}
	}
}
