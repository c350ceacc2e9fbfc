package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, s := MeanStd(xs)
	if m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if math.Abs(s-2) > 1e-12 {
		t.Fatalf("std = %v", s)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Std(nil)) {
		t.Fatal("empty input must yield NaN")
	}
}

func TestCI95(t *testing.T) {
	if CI95([]float64{1}) != 0 {
		t.Fatal("single sample CI must be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // std 2, n 8
	want := 1.96 * 2 / math.Sqrt(8)
	if got := CI95(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %v, want 4", g)
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Fatal("non-positive values must error")
	}
	if _, err := GeoMean(nil); err == nil {
		t.Fatal("empty input must error")
	}
}

func TestKendallTauPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	tau, err := KendallTau(x, x)
	if err != nil {
		t.Fatal(err)
	}
	if tau != 1 {
		t.Fatalf("tau = %v, want 1", tau)
	}
	rev := []float64{4, 3, 2, 1}
	tau, _ = KendallTau(x, rev)
	if tau != -1 {
		t.Fatalf("reversed tau = %v, want -1", tau)
	}
}

func TestKendallTauKnownValue(t *testing.T) {
	// One discordant pair out of six: tau = 2*(5-1)/(4*3) = 2/3.
	x := []float64{1, 2, 3, 4}
	y := []float64{1, 2, 4, 3}
	tau, err := KendallTau(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tau-2.0/3) > 1e-12 {
		t.Fatalf("tau = %v, want 2/3", tau)
	}
}

func TestKendallTauErrors(t *testing.T) {
	if _, err := KendallTau([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single pair must error")
	}
	if _, err := KendallTau([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestKendallTauIndependentNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 500)
	y := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	tau, err := KendallTau(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tau) > 0.08 {
		t.Fatalf("independent tau = %v, want ~0", tau)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("empty extrema must be NaN")
	}
}

// Property: tau is bounded in [-1, 1] and invariant under monotone
// transformation of either ranking.
func TestQuickKendallTauProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		tau, err := KendallTau(x, y)
		if err != nil || tau < -1 || tau > 1 {
			return false
		}
		// Monotone transform of x must not change tau.
		x2 := make([]float64, n)
		for i := range x {
			x2[i] = math.Exp(x[i]) // strictly increasing
		}
		tau2, err := KendallTau(x2, y)
		return err == nil && math.Abs(tau-tau2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationQuantile(t *testing.T) {
	ds := []time.Duration{4 * time.Second, time.Second, 3 * time.Second, 2 * time.Second}
	if got := DurationQuantile(ds, 0); got != time.Second {
		t.Fatalf("q0 = %v", got)
	}
	if got := DurationQuantile(ds, 1); got != 4*time.Second {
		t.Fatalf("q1 = %v", got)
	}
	if got := DurationQuantile(ds, 0.5); got != 3*time.Second {
		t.Fatalf("q0.5 = %v", got)
	}
	if got := DurationQuantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}
