package proxy

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Surrogate is an online ridge-regression predictor of a candidate's
// trained score from its architecture features and zero-cost proxy scores —
// the lightweight accuracy predictor of surrogate-assisted NAS
// (arXiv:2011.13591), refit from the live search trace as admitted
// candidates finish training. All methods are safe for concurrent use.
type Surrogate struct {
	// Lambda is the ridge regularizer; <=0 defaults to 1e-3.
	Lambda float64

	mu     sync.Mutex
	xs     [][]float64
	ys     []float64
	w      []float64 // nil until the first successful Fit
	mean   []float64 // feature standardization, frozen per fit
	scale  []float64
	refits int64
	maeSum float64
	maeN   int64
}

// Observe records one (features, trained score) pair. When the surrogate is
// already fitted, the pair first scores the model: the absolute prediction
// error feeds the surrogate.mae series and MAE(). A pair with a non-finite
// feature or score is dropped: one would make every later fit predict NaN.
func (s *Surrogate) Observe(features []float64, score float64) {
	if !finite(score) || slices.ContainsFunc(features, func(v float64) bool { return !finite(v) }) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != nil {
		err := math.Abs(s.predictLocked(features) - score)
		s.maeSum += err
		s.maeN++
		mSurrogateMAE.Observe(err)
	}
	s.xs = append(s.xs, append([]float64(nil), features...))
	s.ys = append(s.ys, score)
}

// Observations reports how many pairs have been recorded.
func (s *Surrogate) Observations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

// Fit solves the ridge normal equations over everything observed so far.
// Features are standardized per fit so the regularizer treats unit-scale
// choice indices and unbounded gradient norms alike.
func (s *Surrogate) Fit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.xs)
	if n < 2 {
		return fmt.Errorf("proxy: surrogate needs at least 2 observations, has %d", n)
	}
	d := len(s.xs[0])
	mean := make([]float64, d)
	scale := make([]float64, d)
	for _, x := range s.xs {
		for j, v := range x {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	for _, x := range s.xs {
		for j, v := range x {
			dv := v - mean[j]
			scale[j] += dv * dv
		}
	}
	for j := range scale {
		scale[j] = math.Sqrt(scale[j] / float64(n))
		if scale[j] == 0 {
			scale[j] = 1 // constant feature: standardizes to zero
		}
	}
	lambda := s.Lambda
	if lambda <= 0 {
		lambda = 1e-3
	}
	// Normal equations with an intercept column: A = Z'Z + λI, b = Z'y,
	// where Z is the standardized design matrix. d+1 stays ~30 for the
	// built-in spaces, so dense Gaussian elimination is exact and cheap.
	m := d + 1
	A := make([][]float64, m)
	for i := range A {
		A[i] = make([]float64, m+1)
	}
	z := make([]float64, m)
	for r, x := range s.xs {
		for j, v := range x {
			z[j] = (v - mean[j]) / scale[j]
		}
		z[d] = 1
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				A[i][j] += z[i] * z[j]
			}
			A[i][m] += z[i] * s.ys[r]
		}
	}
	for i := 0; i < m; i++ {
		A[i][i] += lambda
	}
	w, err := solve(A)
	if err != nil {
		return err
	}
	s.w, s.mean, s.scale = w, mean, scale
	s.refits++
	mSurrogateRefit.Inc()
	return nil
}

// Ready reports whether Predict has a fitted model to answer from.
func (s *Surrogate) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w != nil
}

// Predict returns the predicted trained score, and false while unfitted.
func (s *Surrogate) Predict(features []float64) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return 0, false
	}
	return s.predictLocked(features), true
}

func (s *Surrogate) predictLocked(features []float64) float64 {
	d := len(s.mean)
	y := s.w[d] // intercept
	for j := 0; j < d && j < len(features); j++ {
		y += s.w[j] * (features[j] - s.mean[j]) / s.scale[j]
	}
	return y
}

// Refits reports how many times Fit has succeeded.
func (s *Surrogate) Refits() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refits
}

// MAE returns the mean absolute prediction error over observations that
// arrived after the surrogate was first fitted (0 until then).
func (s *Surrogate) MAE() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maeN == 0 {
		return 0
	}
	return s.maeSum / float64(s.maeN)
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// solve runs Gaussian elimination with partial pivoting on the augmented
// system [A|b] (m rows, m+1 columns), returning x with Ax = b.
func solve(a [][]float64) ([]float64, error) {
	m := len(a)
	for col := 0; col < m; col++ {
		pivot := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("proxy: surrogate system is singular at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv := 1 / a[col][col]
		for j := col; j <= m; j++ {
			a[col][j] *= inv
		}
		for r := 0; r < m; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := col; j <= m; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	x := make([]float64, m)
	for i := range x {
		x[i] = a[i][m]
	}
	return x, nil
}
