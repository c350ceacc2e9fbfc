package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the layer's public function. Parent is the index of the enclosing
// span (-1 for a root); spans of one candidate share its ID.
type span struct {
	Name      string `json:"name"`
	Layer     string `json:"layer"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	Candidate int    `json:"candidate"`
	Unit      int    `json:"unit"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// ledger keeps spans in memory until the run ends. The zero value of
// *ledger (nil) records nothing, so untraced runs pay one nil check.
type ledger struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newLedger() *ledger { return &ledger{epoch: time.Now()} }

// begin opens a span and returns its index; end closes it. Both are no-ops
// on a nil ledger (begin returns -1).
func (l *ledger) begin(name, layer string, parent, unit, candidate int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Layer: layer, Parent: parent, Unit: unit, Candidate: candidate,
		StartNS: int64(time.Since(l.epoch))})
	return len(l.spans) - 1
}

func (l *ledger) end(i int) {
	if l == nil || i < 0 {
		return
	}
	now := int64(time.Since(l.epoch))
	l.mu.Lock()
	l.spans[i].EndNS = now
	l.mu.Unlock()
}

// add records an already-measured interval (client-side HTTP calls and task
// turnarounds, whose end points the benchmark observes itself).
func (l *ledger) add(name, layer string, parent, unit, candidate int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Layer: layer, Parent: parent, Unit: unit, Candidate: candidate,
		StartNS: int64(start.Sub(l.epoch)), EndNS: int64(end.Sub(l.epoch))})
	return len(l.spans) - 1
}

// selfTimes returns, per span, its duration minus the part of its interval
// its direct children cover (overlapping children are merged first, so two
// concurrent children never subtract the same instant twice).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNS < spans[ks[b]].StartNS })
		var covered, curLo, curHi int64
		open := false
		for _, k := range ks {
			lo, hi := max(spans[k].StartNS, s.StartNS), min(spans[k].EndNS, s.EndNS)
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curLo, curHi, open = lo, hi, true
			case lo <= curHi:
				curHi = max(curHi, hi)
			default:
				covered += curHi - curLo
				curLo, curHi = lo, hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// byName groups span durations by span name.
func (l *ledger) byName() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	if l == nil {
		return out
	}
	for _, s := range l.spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// writeJSONL writes the spans as JSON lines.
func (l *ledger) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is the reporting rule for timings: the highest percentile
// of the ladder that still has at least ten samples beyond it, and the
// median when none has (fewer than 20 samples leave only the median).
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 75} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// dist summarizes one timing series under the percentile rule.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct int     `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

func summarize(xs []float64) dist {
	p := tailPercentile(len(xs))
	return dist{N: len(xs), P50: median(xs), TailPct: p, Tail: quantile(xs, float64(p)/100)}
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
