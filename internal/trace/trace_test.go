package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func sampleTrace(n int) *Trace {
	t := &Trace{App: "nt3", Scheme: "LCS", Seed: 7}
	for i := 0; i < n; i++ {
		t.Records = append(t.Records, Record{
			ID:          i,
			Arch:        []int{i % 3, i % 2},
			Score:       float64(i%5) / 10,
			ParentID:    i - 1,
			TrainTime:   time.Duration(i) * time.Millisecond,
			CompletedAt: time.Duration(i) * time.Second,
		})
	}
	return t
}

func TestScores(t *testing.T) {
	tr := sampleTrace(4)
	s := tr.Scores()
	if len(s) != 4 || s[3] != 0.3 {
		t.Fatalf("scores = %v", s)
	}
}

func TestTopK(t *testing.T) {
	tr := &Trace{Records: []Record{
		{ID: 0, Score: 0.1},
		{ID: 1, Score: 0.9},
		{ID: 2, Score: 0.5},
		{ID: 3, Score: 0.7},
	}}
	top := tr.TopK(2)
	if len(top) != 2 || tr.Records[top[0]].ID != 1 || tr.Records[top[1]].ID != 3 {
		t.Fatalf("top2 = %v", top)
	}
	// K larger than the trace returns everything, best first.
	all := tr.TopK(10)
	if len(all) != 4 || tr.Records[all[0]].ID != 1 {
		t.Fatalf("topAll = %v", all)
	}
}

// TestTopKRanksTiesByID: the ranking is a function of the record set — score
// descending, then the lower candidate ID — whatever order the candidates
// completed in, and a Failed record never ranks even when its zero score
// would.
func TestTopKRanksTiesByID(t *testing.T) {
	recs := []Record{
		{ID: 14, Score: 1}, {ID: 5, Score: 0.9}, {ID: 11, Score: 1},
		{ID: 4, Score: 0.9}, {ID: 13, Score: 1}, {ID: 2, Score: -0.5}, {ID: 7, Failed: true},
	}
	want := []int{11, 13, 14, 4, 5, 2}
	for shift := range recs {
		tr := &Trace{Records: append(append([]Record(nil), recs[shift:]...), recs[:shift]...)}
		var got []int
		for _, i := range tr.TopK(len(recs)) {
			got = append(got, tr.Records[i].ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("completion order rotated by %d: ranked %v, want %v", shift, got, want)
		}
	}
}

func TestRunningBest(t *testing.T) {
	tr := &Trace{Records: []Record{{ID: 0, Failed: true}, {ID: 1, Score: -0.5}, {ID: 2, Failed: true}, {ID: 3, Score: 0.2}, {ID: 4, Score: 0.1}}}
	if got, want := fmt.Sprint(tr.RunningBest()), "[0 -0.5 -0.5 0.2 0.2]"; got != want {
		t.Fatalf("running best = %s, want %s", got, want)
	}
}

func TestSamplePairs(t *testing.T) {
	tr := sampleTrace(10)
	rng := rand.New(rand.NewSource(1))
	pairs, err := tr.SamplePairs(rng, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 20 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		if p.A == p.B {
			t.Fatalf("degenerate pair %+v", p)
		}
		if p.A > p.B {
			t.Fatalf("pair not normalized: %+v", p)
		}
		key := [2]int{p.A, p.B}
		if seen[key] {
			t.Fatalf("duplicate pair %+v", p)
		}
		seen[key] = true
	}
	// Exhaustive sampling: all 45 pairs of 10 records.
	pairs, err = tr.SamplePairs(rng, 45)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 45 {
		t.Fatalf("got %d pairs, want 45", len(pairs))
	}
	if _, err := tr.SamplePairs(rng, 46); err == nil {
		t.Fatal("oversampling must error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sampleTrace(3)
	tr.Records[0].ShapeSeq = [][]int{{3, 3, 1, 8}, {10, 2}}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "nt3" || got.Scheme != "LCS" || got.Seed != 7 {
		t.Fatalf("header = %+v", got)
	}
	if len(got.Records) != 3 || got.Records[0].ShapeSeq[0][3] != 8 {
		t.Fatalf("records = %+v", got.Records)
	}
	if _, err := ReadJSON(bytes.NewBufferString("{nope")); err == nil {
		t.Fatal("bad JSON must error")
	}
}
