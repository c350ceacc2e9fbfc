// Package trace records NAS runs — every evaluated candidate with its
// architecture sequence, score and costs — and provides the
// pair-sampling utilities behind the paper's offline studies (Figs 2, 4, 5).
// Record is the one representation of a finished candidate: the evaluator
// fills it, the RPC result and the scheduler's result carry it, the journal
// stores it, and TopK is the one rule that ranks it.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"
)

// Record is one evaluated candidate. It crosses the wire inside
// cluster.RPCResult (gob) and is the body of a journal record (JSON).
type Record struct {
	// ID is the candidate's sequence number within the search.
	ID int `json:"id"`
	// Arch is the architecture sequence.
	Arch []int `json:"arch"`
	// Score is the estimated objective metric from partial training.
	Score float64 `json:"score"`
	// Params is the trainable parameter count.
	Params int `json:"params"`
	// ParentID is the provider candidate (-1 when trained from scratch).
	ParentID int `json:"parent_id"`
	// TransferCopied counts layer groups warm-started by weight transfer.
	TransferCopied int `json:"transfer_copied"`
	// TrainTime is the measured training duration.
	TrainTime time.Duration `json:"train_time"`
	// CheckpointBytes is the encoded checkpoint size.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// CompletedAt is the completion offset from search start.
	CompletedAt time.Duration `json:"completed_at"`
	// EvalTime is the end-to-end evaluation latency (build + transfer +
	// train + checkpoint); zero in traces from before it was recorded.
	EvalTime time.Duration `json:"eval_time,omitempty"`
	// QueueWait is how long the task waited for a free evaluator.
	QueueWait time.Duration `json:"queue_wait,omitempty"`
	// Failed marks a candidate whose evaluation exhausted its retry budget
	// under fault-tolerant distributed execution: the search completed
	// without it (Score is meaningless) instead of aborting.
	Failed bool `json:"failed,omitempty"`
	// FailReason carries the last evaluation error of a Failed candidate.
	FailReason string `json:"fail_reason,omitempty"`
	// ProxyScore is the admission score the proxy pre-filter gave this
	// candidate before training (surrogate prediction or zero-cost score);
	// zero in runs without the filter.
	ProxyScore float64 `json:"proxy_score,omitempty"`
}

// FilteredRecord is one proposal the proxy pre-filter rejected before any
// training was spent on it. Filtered proposals consume no candidate IDs and
// are not journaled: a crash-resumed run regenerates them deterministically
// from the seed.
type FilteredRecord struct {
	// Seq is the proposal's draw number within the search (0-based, counted
	// over every drawn proposal, admitted or not).
	Seq int `json:"seq"`
	// Arch is the rejected architecture sequence.
	Arch []int `json:"arch"`
	// ParentID is the proposal's transfer provider (-1 for scratch).
	ParentID int `json:"parent_id"`
	// ProxyScore is the admission score that ranked it below the cut: the
	// surrogate prediction once fitted, the gradient norm before that.
	ProxyScore float64 `json:"proxy_score"`
	// Params is the rejected network's trainable-parameter count.
	Params int `json:"params,omitempty"`
}

// Trace is the ordered record of one NAS run.
type Trace struct {
	// App is the application name.
	App string `json:"app"`
	// Scheme is the estimation scheme ("baseline", "LP", "LCS").
	Scheme string `json:"scheme"`
	// Seed is the search seed.
	Seed int64 `json:"seed"`
	// Records are in completion order.
	Records []Record `json:"records"`
	// Filtered lists the proposals the proxy pre-filter rejected before
	// training, in draw order (empty in runs without the filter). They do
	// not count against the budget and never rank in TopK.
	Filtered []FilteredRecord `json:"filtered,omitempty"`
}

// Scores extracts the score column.
func (t *Trace) Scores() []float64 {
	out := make([]float64, len(t.Records))
	for i, r := range t.Records {
		out[i] = r.Score
	}
	return out
}

// TopK returns the indices of the K best records, best first — the candidates
// NAS would fully train in phase two. It is the repo's one ranking rule: score
// descending, then candidate ID ascending, so the order is a function of the
// record set and not of the order completions arrived in. Failed records
// never rank.
func (t *Trace) TopK(k int) []int {
	idx := make([]int, 0, len(t.Records))
	for i, r := range t.Records {
		if !r.Failed {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := t.Records[idx[a]], t.Records[idx[b]]
		if ra.Score != rb.Score {
			return ra.Score > rb.Score
		}
		return ra.ID < rb.ID
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// RunningBest returns, for every record, the best score among the non-Failed
// records up to and including it, in completion order (0 while none has
// scored) — what the scheduler reports as BestScore while a search runs, for
// callers that hold only the records.
func (t *Trace) RunningBest() []float64 {
	out := make([]float64, len(t.Records))
	best, scored := 0.0, false
	for i, r := range t.Records {
		if !r.Failed && (!scored || r.Score > best) {
			best, scored = r.Score, true
		}
		out[i] = best
	}
	return out
}

// Pair indexes two distinct records of a trace.
type Pair struct {
	A, B int
}

// SamplePairs draws n distinct unordered pairs of distinct records uniformly
// at random without replacement (paper Section III: 10,000 pairs). It errors
// if the trace cannot supply n distinct pairs.
func (t *Trace) SamplePairs(rng *rand.Rand, n int) ([]Pair, error) {
	m := len(t.Records)
	total := m * (m - 1) / 2
	if n > total {
		return nil, fmt.Errorf("trace: cannot sample %d pairs from %d records (%d possible)", n, m, total)
	}
	seen := make(map[[2]int]bool, n)
	pairs := make([]Pair, 0, n)
	for len(pairs) < n {
		a, b := rng.Intn(m), rng.Intn(m)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if seen[key] {
			continue
		}
		seen[key] = true
		pairs = append(pairs, Pair{A: a, B: b})
	}
	return pairs, nil
}

// WriteJSON serializes the trace (one JSON document).
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// ReadJSON deserializes a trace written by WriteJSON.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decoding: %w", err)
	}
	return &t, nil
}
