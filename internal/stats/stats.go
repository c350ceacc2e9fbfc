// Package stats provides the statistical helpers the paper's evaluation
// uses: Kendall's τ rank correlation (Fig 9), mean ± std summaries
// (Tables III/IV), 95% confidence intervals (Fig 7), and geometric-mean
// speedups (Fig 8).
package stats

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation (NaN for empty input).
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	v := 0.0
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	return math.Sqrt(v / float64(len(xs)))
}

// MeanStd returns both moments in one pass over the data.
func MeanStd(xs []float64) (mean, std float64) {
	return Mean(xs), Std(xs)
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean (0 for fewer than 2 samples).
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * Std(xs) / math.Sqrt(float64(len(xs)))
}

// GeoMean returns the geometric mean of strictly positive values; it errors
// on non-positive input, which would make the result meaningless.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geomean of empty slice")
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean requires positive values, got %v", x)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// KendallTau computes Kendall's τ-a rank correlation between paired samples
// (paper Section VIII-D): τ = 2(Nc - Nd) / (n(n-1)). Tied pairs count as
// neither concordant nor discordant. It errors when fewer than two pairs or
// mismatched lengths are given.
func KendallTau(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: kendall tau needs equal lengths, got %d and %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return 0, fmt.Errorf("stats: kendall tau needs at least 2 pairs, got %d", n)
	}
	nc, nd := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := x[i] - x[j]
			dy := y[i] - y[j]
			p := dx * dy
			switch {
			case p > 0:
				nc++
			case p < 0:
				nd++
			}
		}
	}
	return 2 * float64(nc-nd) / float64(n*(n-1)), nil
}

// Min and Max return the extrema (NaN for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum (NaN for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// DurationQuantile returns the q-quantile of ds by nearest-rank on a sorted
// copy — the speculation threshold base in both the simulator and the real
// coordinator (cluster.FaultConfig.SpeculativeQuantile).
func DurationQuantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}
