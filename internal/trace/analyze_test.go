package trace

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// lineageTrace: 0 (scratch) <- 1 <- 2 <- 3; 4 scratch.
func lineageTrace() *Trace {
	return &Trace{App: "nt3", Scheme: "LCS", Records: []Record{
		{ID: 0, ParentID: -1, Score: 0.5, TrainTime: 10 * time.Millisecond, CheckpointBytes: 1024, CompletedAt: time.Second},
		{ID: 1, ParentID: 0, Score: 0.6, TransferCopied: 2, TrainTime: 10 * time.Millisecond, CheckpointBytes: 2048, CompletedAt: 2 * time.Second},
		{ID: 2, ParentID: 1, Score: 0.7, TransferCopied: 2, TrainTime: 10 * time.Millisecond, CheckpointBytes: 1024, CompletedAt: 3 * time.Second},
		{ID: 3, ParentID: 2, Score: 0.9, TransferCopied: 1, TrainTime: 10 * time.Millisecond, CheckpointBytes: 1024, CompletedAt: 4 * time.Second},
		{ID: 4, ParentID: -1, Score: 0.4, TrainTime: 10 * time.Millisecond, CheckpointBytes: 1024, CompletedAt: 5 * time.Second},
	}}
}

func TestLineageDepth(t *testing.T) {
	tr := lineageTrace()
	want := map[int]int{0: 0, 1: 1, 2: 2, 3: 3, 4: 0}
	for id, d := range want {
		if got := tr.LineageDepth(id); got != d {
			t.Errorf("LineageDepth(%d) = %d, want %d", id, got, d)
		}
	}
	if tr.LineageDepth(99) != 0 {
		t.Error("unknown id must have depth 0")
	}
}

func TestLineageDepthTerminatesOnCycle(t *testing.T) {
	tr := &Trace{Records: []Record{
		{ID: 0, ParentID: 1},
		{ID: 1, ParentID: 0},
	}}
	// A corrupt cyclic trace must not hang.
	if d := tr.LineageDepth(0); d <= 0 {
		t.Fatalf("depth = %d", d)
	}
}

func TestSummarize(t *testing.T) {
	s := lineageTrace().Summarize()
	if s.Candidates != 5 || s.BestID != 3 || s.BestScore != 0.9 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Transferred != 3 {
		t.Fatalf("transferred = %d", s.Transferred)
	}
	if s.MaxLineage != 3 {
		t.Fatalf("max lineage = %d", s.MaxLineage)
	}
	if s.Makespan != 5*time.Second {
		t.Fatalf("makespan = %v", s.Makespan)
	}
	// mean lineage = (0+1+2+3+0)/5
	if s.MeanLineage != 1.2 {
		t.Fatalf("mean lineage = %v", s.MeanLineage)
	}
	empty := (&Trace{}).Summarize()
	if empty.Candidates != 0 || empty.BestID != -1 {
		t.Fatalf("empty summary = %+v", empty)
	}

	// A Failed record has no score and no checkpoint: it is counted, and
	// nothing else moves — not even when its zero score beats every real one.
	tr := lineageTrace()
	for i := range tr.Records {
		tr.Records[i].Score -= 1
	}
	want := tr.Summarize()
	tr.Records = append(tr.Records, Record{ID: 5, ParentID: 3, Failed: true, FailReason: "non-finite score", TransferCopied: 1, CompletedAt: 6 * time.Second})
	got := tr.Summarize()
	want.Candidates, want.Failed, want.Makespan = 6, 1, 6*time.Second
	if got != want {
		t.Fatalf("summary with a Failed record:\n got  %+v\n want %+v", got, want)
	}
	allFailed := (&Trace{Records: []Record{{ID: 0, Failed: true}}}).Summarize()
	if allFailed.BestID != -1 || allFailed.Failed != 1 || allFailed.MeanScore != 0 {
		t.Fatalf("all-failed summary = %+v", allFailed)
	}
}

func TestWriteSummary(t *testing.T) {
	var buf bytes.Buffer
	lineageTrace().WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"best score", "lineage depth", "warm-started"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := lineageTrace().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("csv lines = %d, want header + 5", len(lines))
	}
	if !strings.HasPrefix(lines[0], "id,score") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[4], "3,0.9,2,1,3,") {
		t.Fatalf("row for id 3 = %q", lines[4])
	}
}

func TestScoreQuantiles(t *testing.T) {
	tr := lineageTrace()
	q := tr.ScoreQuantiles(4)
	if len(q) != 5 {
		t.Fatalf("quantiles = %v", q)
	}
	if q[0] != 0.4 || q[4] != 0.9 {
		t.Fatalf("min/max quantiles = %v", q)
	}
	for i := 1; i < len(q); i++ {
		if q[i] < q[i-1] {
			t.Fatalf("quantiles not monotone: %v", q)
		}
	}
	if (&Trace{}).ScoreQuantiles(4) != nil {
		t.Fatal("empty trace quantiles must be nil")
	}
	if tr.ScoreQuantiles(0) != nil {
		t.Fatal("q=0 must be nil")
	}

	// Failed records have no score: a 0 must not enter the quantiles, not
	// even below every real score (R² can be negative).
	neg := lineageTrace()
	for i := range neg.Records {
		neg.Records[i].Score -= 1
	}
	want := neg.ScoreQuantiles(4)
	neg.Records = append(neg.Records, Record{ID: 5, ParentID: 3, Failed: true}, Record{ID: 6, ParentID: -1, Failed: true})
	if got := neg.ScoreQuantiles(4); !slices.Equal(got, want) {
		t.Fatalf("quantiles with Failed records = %v, want %v", got, want)
	}
	if q := (&Trace{Records: []Record{{ID: 0, Failed: true}}}).ScoreQuantiles(4); q != nil {
		t.Fatalf("all-failed trace quantiles = %v, want nil", q)
	}
}

// walkDepth is LineageDepth as one walk per record: the reference the
// memoised depths are held to.
func walkDepth(t *Trace, id int) int {
	byID := map[int]Record{}
	for _, r := range t.Records {
		byID[r.ID] = r
	}
	depth := 0
	cur, ok := byID[id]
	if !ok {
		return 0
	}
	for cur.ParentID >= 0 {
		next, ok := byID[cur.ParentID]
		if !ok {
			break
		}
		depth++
		cur = next
		if depth > len(t.Records) {
			break
		}
	}
	return depth
}

// TestLineageDepthsMatchOneWalkPerRecord: on random traces — parents
// earlier, later, missing or negative, duplicate IDs, self-parents and
// cycles — every record's depth, as Summarize and WriteCSV read it, is the
// one walk's.
func TestLineageDepthsMatchOneWalkPerRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cycles := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(30)
		tr := &Trace{}
		for i := 0; i < n; i++ {
			tr.Records = append(tr.Records, Record{ID: rng.Intn(n + 2), ParentID: rng.Intn(n+4) - 2})
		}
		depths := tr.lineageDepths()
		for id := -2; id < n+4; id++ {
			got, want := depths[id], walkDepth(tr, id)
			if got != want {
				t.Fatalf("trial %d, %+v: depth of %d = %d, want %d", trial, tr.Records, id, got, want)
			}
			if want == n+1 {
				cycles++
			}
		}
	}
	if cycles == 0 {
		t.Fatal("no trace ran into a cycle")
	}
}

// TestSummarizeLongChainIsLinear: a 16,000-record chain, each candidate
// the previous one's child, summarises in well under a second; one walk per
// record took over a minute.
func TestSummarizeLongChainIsLinear(t *testing.T) {
	const n = 16000
	tr := &Trace{}
	for i := 0; i < n; i++ {
		tr.Records = append(tr.Records, Record{ID: i, ParentID: i - 1, Score: float64(i)})
	}
	start := time.Now()
	s := tr.Summarize()
	if err := tr.WriteCSV(io.Discard); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Summarize and WriteCSV took %v", elapsed)
	}
	if s.MaxLineage != n-1 || s.MeanLineage != float64(n-1)/2 {
		t.Fatalf("max lineage %d, mean %g", s.MaxLineage, s.MeanLineage)
	}
}
