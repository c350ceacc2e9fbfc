package nas

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/evo"
	"swtnas/internal/resilience"
	"swtnas/internal/trace"
)

// journaledRun executes one full journaled LCS search and returns its trace
// plus the journal's recovered records.
func journaledRun(t *testing.T, path string, budget int) (*trace.Trace, []resilience.EvalRecord) {
	t.Helper()
	app := tinyApp(t, "nt3")
	j, err := resilience.Create(path, resilience.Header{App: app.Name, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		App:      app,
		Matcher:  core.LCS{},
		Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2),
		Budget:   budget,
		Seed:     11,
		Journal:  j,
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
	return tr, rec.Records
}

func tracesEqual(t *testing.T, a, b *trace.Trace, label string) {
	t.Helper()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("%s: %d records vs %d", label, len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.ID != rb.ID || ra.Score != rb.Score || ra.ParentID != rb.ParentID ||
			ra.Params != rb.Params || ra.TransferCopied != rb.TransferCopied || ra.Failed != rb.Failed {
			t.Fatalf("%s: record %d differs:\n  full   %+v\n  resumed %+v", label, i, ra, rb)
		}
		if fmt.Sprint(ra.Arch) != fmt.Sprint(rb.Arch) {
			t.Fatalf("%s: record %d arch %v vs %v", label, i, ra.Arch, rb.Arch)
		}
	}
	ka, kb := a.TopK(3), b.TopK(3)
	if fmt.Sprint(ka) != fmt.Sprint(kb) {
		t.Fatalf("%s: top-K %v vs %v", label, ka, kb)
	}
}

// TestResumeRestoresCheckpointsBitForBit: the store a resumed run rebuilds
// from the journal must hold the exact encoded bytes the original run saved.
func TestResumeRestoresCheckpointsBitForBit(t *testing.T) {
	const budget = 4
	dir := t.TempDir()
	path := filepath.Join(dir, "run.swtj")
	_, recs := journaledRun(t, path, budget)

	app := tinyApp(t, "nt3")
	j, rec, err := resilience.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	store := checkpoint.NewMemStore()
	if _, err := Run(context.Background(), Config{
		App:      app,
		Matcher:  core.LCS{},
		Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2),
		Store:    store,
		Budget:   budget,
		Seed:     11,
		Resume:   rec,
	}); err != nil {
		t.Fatal(err)
	}
	for _, er := range recs {
		blob, err := checkpoint.LoadEncoded(store, CandidateID(er.Record.ID))
		if err != nil {
			t.Fatalf("candidate %d: %v", er.Record.ID, err)
		}
		if string(blob) != string(er.Checkpoint) {
			t.Fatalf("candidate %d: restored checkpoint differs (%d vs %d bytes)",
				er.Record.ID, len(blob), len(er.Checkpoint))
		}
	}
}

// TestResumeRejectsMismatchedRun: replaying a journal against different
// search options must fail loudly, not silently diverge.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	const budget = 4
	dir := t.TempDir()
	path := filepath.Join(dir, "run.swtj")
	journaledRun(t, path, budget)

	app := tinyApp(t, "nt3")
	_, rec, err := resilience.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong seed: the re-derived proposal stream cannot match the journal.
	_, err = Run(context.Background(), Config{
		App:      app,
		Matcher:  core.LCS{},
		Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2),
		Budget:   budget,
		Seed:     12,
		Resume:   rec,
	})
	if err == nil {
		t.Fatal("resume under a different seed must fail")
	}
	// Journal longer than the budget.
	_, err = Run(context.Background(), Config{
		App:      app,
		Matcher:  core.LCS{},
		Strategy: evo.NewRegularizedEvolution(app.Space, 3, 2),
		Budget:   2,
		Seed:     11,
		Resume:   rec,
	})
	if err == nil {
		t.Fatal("resume with a smaller budget than the journal must fail")
	}
}
