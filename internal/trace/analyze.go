package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Lineage statistics explain *why* weight transfer accelerates estimation:
// under aging evolution each child resumes its parent's weights, so a
// candidate's effective training budget is its whole ancestor chain's
// (paper Section III: "training the new candidate for two times more
// epochs" — generalized to arbitrary depth).

// LineageDepth returns how many ancestors a record has within the trace
// (0 for candidates trained from scratch).
func (t *Trace) LineageDepth(id int) int { return t.lineageDepths()[id] }

// lineageDepths returns every record's LineageDepth by ID, walking each
// ancestor chain once: a walk stops at a record whose depth is known, and
// the records it passed take their depths on the way back. A chain that
// runs into a cycle (a corrupt trace) reads len(t.Records)+1 throughout.
func (t *Trace) lineageDepths() map[int]int {
	parent := make(map[int]int, len(t.Records))
	for _, r := range t.Records {
		parent[r.ID] = r.ParentID
	}
	const walking = -1 // on the current walk, depth not yet known
	cyclic := len(t.Records) + 1
	depths := make(map[int]int, len(parent))
	var path []int
	for id := range parent {
		if _, ok := depths[id]; ok {
			continue
		}
		path = path[:0]
		d := -1 // the depth of the walk's last record's parent: -1 past a root
		for cur := id; ; cur = parent[cur] {
			depths[cur] = walking
			path = append(path, cur)
			p := parent[cur]
			if _, ok := parent[p]; p < 0 || !ok {
				break
			}
			if pd, ok := depths[p]; ok {
				if d = pd; pd == walking {
					d = cyclic
				}
				break
			}
		}
		for i := len(path) - 1; i >= 0; i-- {
			if d != cyclic {
				d++
			}
			depths[path[i]] = d
		}
	}
	return depths
}

// Summary aggregates a trace for reporting. Candidates counts every record;
// Failed ones (no score, no checkpoint) are counted in Failed and left out of
// every other figure.
type Summary struct {
	App, Scheme     string
	Candidates      int
	Failed          int
	BestScore       float64
	BestID          int
	MeanScore       float64
	Transferred     int // candidates with at least one warm-started layer
	MeanLineage     float64
	MaxLineage      int
	TotalTrainTime  time.Duration
	TotalCkptBytes  int64
	Makespan        time.Duration
	MeanCkptKB      float64
	MeanTrainMillis float64
}

// Summarize computes the Summary of a trace. The best candidate is TopK's
// first.
func (t *Trace) Summarize() Summary {
	s := Summary{App: t.App, Scheme: t.Scheme, Candidates: len(t.Records), BestID: -1}
	var scoreSum float64
	var lineageSum int
	depths := t.lineageDepths()
	for _, r := range t.Records {
		if r.CompletedAt > s.Makespan {
			s.Makespan = r.CompletedAt
		}
		if r.Failed {
			s.Failed++
			continue
		}
		scoreSum += r.Score
		if r.TransferCopied > 0 {
			s.Transferred++
		}
		d := depths[r.ID]
		lineageSum += d
		if d > s.MaxLineage {
			s.MaxLineage = d
		}
		s.TotalTrainTime += r.TrainTime
		s.TotalCkptBytes += r.CheckpointBytes
	}
	top := t.TopK(1)
	if len(top) == 0 {
		return s
	}
	s.BestID, s.BestScore = t.Records[top[0]].ID, t.Records[top[0]].Score
	n := float64(s.Candidates - s.Failed)
	s.MeanScore = scoreSum / n
	s.MeanLineage = float64(lineageSum) / n
	s.MeanCkptKB = float64(s.TotalCkptBytes) / n / 1024
	s.MeanTrainMillis = float64(s.TotalTrainTime) / n / float64(time.Millisecond)
	return s
}

// WriteSummary renders the summary as aligned text.
func (t *Trace) WriteSummary(w io.Writer) {
	s := t.Summarize()
	fmt.Fprintf(w, "trace %s/%s (seed %d)\n", s.App, s.Scheme, t.Seed)
	fmt.Fprintf(w, "  candidates      %d (%d failed)\n", s.Candidates, s.Failed)
	fmt.Fprintf(w, "  best score      %.4f (candidate %d)\n", s.BestScore, s.BestID)
	fmt.Fprintf(w, "  mean score      %.4f\n", s.MeanScore)
	fmt.Fprintf(w, "  warm-started    %d (%.0f%%)\n", s.Transferred, 100*float64(s.Transferred)/float64(max(1, s.Candidates-s.Failed)))
	fmt.Fprintf(w, "  lineage depth   mean %.2f, max %d\n", s.MeanLineage, s.MaxLineage)
	fmt.Fprintf(w, "  train time      %.1f ms/candidate\n", s.MeanTrainMillis)
	fmt.Fprintf(w, "  checkpoints     %.1f KB/candidate\n", s.MeanCkptKB)
	fmt.Fprintf(w, "  makespan        %s\n", s.Makespan.Round(time.Millisecond))
}

// WriteCSV exports the trace as CSV (one row per candidate) for external
// plotting of the paper's Figure 7 style curves.
func (t *Trace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "id,score,parent_id,transfer_copied,lineage_depth,params,train_ms,ckpt_bytes,completed_ms"); err != nil {
		return err
	}
	depths := t.lineageDepths()
	for _, r := range t.Records {
		if _, err := fmt.Fprintf(w, "%d,%g,%d,%d,%d,%d,%g,%d,%g\n",
			r.ID, r.Score, r.ParentID, r.TransferCopied, depths[r.ID], r.Params,
			float64(r.TrainTime)/float64(time.Millisecond),
			r.CheckpointBytes,
			float64(r.CompletedAt)/float64(time.Millisecond)); err != nil {
			return err
		}
	}
	return nil
}

// ScoreQuantiles returns the q-quantiles of the scored candidates (q >= 1),
// useful for comparing runs without assuming normality. Failed records have
// no score and are skipped, as in Summarize; with no scored record it returns
// nil.
func (t *Trace) ScoreQuantiles(q int) []float64 {
	var scores []float64
	for _, r := range t.Records {
		if !r.Failed {
			scores = append(scores, r.Score)
		}
	}
	if q < 1 || len(scores) == 0 {
		return nil
	}
	sort.Float64s(scores)
	out := make([]float64, q+1)
	for i := 0; i <= q; i++ {
		idx := i * (len(scores) - 1) / q
		out[i] = scores[idx]
	}
	return out
}
