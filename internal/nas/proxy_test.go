package nas

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"swtnas/internal/checkpoint"
	"swtnas/internal/core"
	"swtnas/internal/evo"
	"swtnas/internal/proxy"
	"swtnas/internal/resilience"
	"swtnas/internal/trace"
)

func newProxyConfig(t *testing.T, store checkpoint.Store) Config {
	t.Helper()
	app := tinyApp(t, "nt3")
	pf, err := proxy.NewPrefilter(proxy.FilterConfig{
		Space: app.Space,
		Loss:  app.Space.Loss,
		Batch: app.Dataset.Train.Slice(0, 8),
		Seed:  11,
		Admit: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		App:       app,
		Matcher:   core.LCS{},
		Strategy:  evo.NewRegularizedEvolution(app.Space, 3, 2),
		Store:     store,
		Budget:    12,
		Seed:      11,
		Prefilter: pf,
	}
}

func filteredEqual(t *testing.T, a, b []trace.FilteredRecord, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d filtered records vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].ProxyScore != b[i].ProxyScore ||
			a[i].ParentID != b[i].ParentID || fmt.Sprint(a[i].Arch) != fmt.Sprint(b[i].Arch) {
			t.Fatalf("%s: filtered record %d differs:\n  %+v\n  %+v", label, i, a[i], b[i])
		}
	}
}

// A filtered search must reject a substantial share of proposals before
// training (the whole point of the pre-filter) while still completing the
// full budget of admitted evaluations.
func TestProxyFilterRejectsBeforeTraining(t *testing.T) {
	cfg := newProxyConfig(t, checkpoint.NewCASMemStore())
	var seen []trace.FilteredRecord
	cfg.OnFiltered = func(fc trace.FilteredRecord) { seen = append(seen, fc) }
	tr, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != cfg.Budget {
		t.Fatalf("completed %d of %d", len(tr.Records), cfg.Budget)
	}
	st := cfg.Prefilter.Stats()
	if st.Proposals == 0 {
		t.Fatal("filter saw no proposals")
	}
	if frac := float64(st.Filtered) / float64(st.Proposals); frac < 0.3 {
		t.Fatalf("filtered %d of %d proposals (%.0f%%), want >= 30%%", st.Filtered, st.Proposals, 100*frac)
	}
	if int64(len(tr.Filtered)) != st.Filtered {
		t.Fatalf("trace lists %d filtered, stats say %d", len(tr.Filtered), st.Filtered)
	}
	if int64(len(seen)) != st.Filtered {
		t.Fatalf("OnFiltered fired %d times, stats say %d", len(seen), st.Filtered)
	}
	for _, r := range tr.Records {
		if r.ProxyScore == 0 {
			t.Fatalf("admitted candidate %d has no proxy score", r.ID)
		}
	}
	for i, f := range tr.Filtered {
		if len(f.Arch) == 0 {
			t.Fatalf("filtered record %d has no arch", i)
		}
	}
}

// Two identical single-worker runs must make identical admission decisions
// and produce identical traces — filtered list included. This is the seeded
// determinism the resume path relies on.
func TestProxyFilterDeterministicAcrossReruns(t *testing.T) {
	run := func() *trace.Trace {
		cfg := newProxyConfig(t, checkpoint.NewCASMemStore())
		tr, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	tracesEqual(t, a, b, "rerun")
	filteredEqual(t, a.Filtered, b.Filtered, "rerun")
	for i := range a.Records {
		if a.Records[i].ProxyScore != b.Records[i].ProxyScore {
			t.Fatalf("record %d proxy score %v vs %v", i, a.Records[i].ProxyScore, b.Records[i].ProxyScore)
		}
	}
}

// Crash-resume with the filter on: filtered proposals are not journaled, yet
// a resumed run regenerates the same decisions from the seed and converges
// to the identical trace — records, proxy scores and filtered list.
func TestProxyFilterResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	budget := 12

	// Full journaled reference run.
	fullPath := filepath.Join(dir, "full.swtj")
	j, err := resilience.Create(fullPath, resilience.Header{App: "nt3", Budget: budget, ProxyFilter: true, ProxyAdmit: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Every run shares the store directory, as a crash and its resume do.
	openStore := func() checkpoint.Store {
		store, err := checkpoint.NewCASDiskStore(filepath.Join(dir, "blobs"))
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	cfg := newProxyConfig(t, openStore())
	cfg.Journal = j
	full, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := resilience.Read(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{0, 1, 5, 11} {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.swtj", k))
		jc, err := resilience.Create(path, resilience.Header{App: "nt3", Budget: budget, ProxyFilter: true, ProxyAdmit: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		for _, er := range rec.Records[:k] {
			if err := jc.Append(er); err != nil {
				t.Fatal(err)
			}
		}
		if err := jc.Close(); err != nil {
			t.Fatal(err)
		}
		j2, rc, err := resilience.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rcfg := newProxyConfig(t, openStore())
		rcfg.Journal = j2
		rcfg.Resume = rc
		resumed, err := Run(context.Background(), rcfg)
		if err != nil {
			t.Fatalf("resume at k=%d: %v", k, err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		tracesEqual(t, full, resumed, fmt.Sprintf("k=%d", k))
		filteredEqual(t, full.Filtered, resumed.Filtered, fmt.Sprintf("k=%d", k))
		for i := range full.Records {
			if full.Records[i].ProxyScore != resumed.Records[i].ProxyScore {
				t.Fatalf("k=%d: record %d proxy score %v vs %v", k, i,
					full.Records[i].ProxyScore, resumed.Records[i].ProxyScore)
			}
		}
	}
}

// The Pareto strategy drives a full search through the scheduler, including
// checkpoint GC (which recognizes its OnEvict hook).
func TestParetoStrategySearch(t *testing.T) {
	app := tinyApp(t, "nt3")
	store := checkpoint.NewCASMemStore()
	tr, err := Run(context.Background(), Config{
		App:        app,
		Matcher:    core.LCS{},
		Strategy:   evo.NewParetoEvolution(app.Space, 3, 2),
		Store:      store,
		Budget:     8,
		Seed:       5,
		RetainTopK: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 8 {
		t.Fatalf("completed %d of 8", len(tr.Records))
	}
	for _, r := range tr.Records {
		if r.Params <= 0 {
			t.Fatalf("record %d lacks params (Pareto's second objective): %+v", r.ID, r)
		}
	}
}
