package experiments

import (
	"io"
	"math"
	"time"

	"swtnas/internal/stats"
)

// Fig7Point is one plotted point of Figure 7: the mean candidate score
// (with 95% CI) inside one time slot of the NAS runtime.
type Fig7Point struct {
	App     string
	Scheme  string
	SlotEnd time.Duration
	Mean    float64
	CI      float64
	N       int
}

// Fig7Summary compares the schemes over the final quarter of the shortest
// run — the "who wins" statistic of Figure 7.
type Fig7Summary struct {
	App       string
	TailMeans map[string]float64
}

// Fig7 reproduces Figure 7: estimated objective metrics of the candidate
// models over the NAS runtime, for baseline/LP/LCS. Scores are grouped into
// time slots (the paper uses 50 s slots at GPU scale; here the slot width is
// 1/20 of the shortest run) and averaged with a 95% confidence band. Only
// the duration of the shortest experiment is compared, as in the paper.
func (s *Suite) Fig7(w io.Writer) ([]Fig7Point, []Fig7Summary, error) {
	line(w, "Fig 7: candidate scores during NAS runtime (mean ± 95%% CI per time slot)")
	var points []Fig7Point
	var summaries []Fig7Summary
	for _, name := range s.Cfg.Apps {
		shortest, err := s.shortestMakespan(name)
		if err != nil {
			return nil, nil, err
		}
		if shortest == 0 {
			continue
		}
		slot := shortest / 20
		if slot <= 0 {
			slot = time.Millisecond
		}
		summary := Fig7Summary{App: name, TailMeans: map[string]float64{}}
		for _, scheme := range Schemes() {
			c, err := s.Campaign(name, scheme)
			if err != nil {
				return nil, nil, err
			}
			buckets := map[int][]float64{}
			var tail []float64
			for _, tr := range c.Traces {
				for _, r := range tr.Records {
					if r.CompletedAt > shortest {
						continue
					}
					b := int(r.CompletedAt / slot)
					buckets[b] = append(buckets[b], r.Score)
					if r.CompletedAt >= shortest*3/4 {
						tail = append(tail, r.Score)
					}
				}
			}
			for b := 0; b <= 20; b++ {
				xs := buckets[b]
				if len(xs) == 0 {
					continue
				}
				p := Fig7Point{
					App:     name,
					Scheme:  scheme,
					SlotEnd: time.Duration(b+1) * slot,
					Mean:    stats.Mean(xs),
					CI:      stats.CI95(xs),
					N:       len(xs),
				}
				points = append(points, p)
			}
			summary.TailMeans[scheme] = stats.Mean(tail)
		}
		summaries = append(summaries, summary)
		line(w, "  %-8s final-quarter mean score: baseline %.4f  LP %.4f  LCS %.4f",
			name, summary.TailMeans["baseline"], summary.TailMeans["LP"], summary.TailMeans["LCS"])
		for _, scheme := range Schemes() {
			line(w, "    %-8s |%s|", scheme, sparkline(points, name, scheme, 21))
		}
	}
	line(w, "  (full per-slot series: %d points; sparklines span min..max score per app)", len(points))
	return points, summaries, nil
}

// sparkline renders one scheme's slot means as a character strip, scaled to
// the app's min..max across all schemes so the three strips are comparable.
func sparkline(points []Fig7Point, app, scheme string, slots int) string {
	const ramp = " .:-=+*#%@"
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		if p.App != app {
			continue
		}
		if p.Mean < lo {
			lo = p.Mean
		}
		if p.Mean > hi {
			hi = p.Mean
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	cells := make([]byte, slots)
	for i := range cells {
		cells[i] = ' '
	}
	// Points were appended in slot order per scheme; fill left to right.
	next := 0
	for _, p := range points {
		if p.App != app || p.Scheme != scheme || next >= slots {
			continue
		}
		idx := int(float64(len(ramp)-1) * (p.Mean - lo) / (hi - lo))
		cells[next] = ramp[idx]
		next++
	}
	return string(cells)
}
