package proxy

import (
	"fmt"
	"math"

	"swtnas/internal/nn"
)

// Both scorers are deterministic — the same weights and batch give the same
// score, so a resumed search reproduces every filter decision — and leave the
// network with dirty gradients for a caller that reuses it to zero.

// GradNorm scores a candidate by the global L2 norm of its parameter
// gradients after one forward/backward pass on the scoring minibatch — the
// one-step NTK-trace signal of NASI (arXiv:2109.00817): architectures whose
// initial gradients carry more energy train faster under the same budget.
type GradNorm struct{}

// Score runs one forward + loss + backward pass and returns the global
// gradient L2 norm.
func (GradNorm) Score(net *nn.Network, loss nn.Loss, batch *nn.Data) (float64, error) {
	g, err := paramGradient(net, loss, batch)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, v := range g {
		total += v * v
	}
	return math.Sqrt(total), nil
}

// JacobCov scores a candidate by how decorrelated its per-sample parameter
// gradients are at initialization, the Jacobian-covariance heuristic of the
// training-free NAS literature: a network whose samples pull the weights in
// independent directions can tell inputs apart before any training. The
// score is the negated mean absolute off-diagonal correlation, so higher
// (closer to zero) means more decorrelated and ranks better.
type JacobCov struct{}

// jacobSamples caps how many batch rows get an individual backward pass;
// each costs one forward+backward at batch size 1.
const jacobSamples = 8

// Score computes per-sample parameter gradients for the first jacobSamples
// rows of the batch and returns the negated mean |correlation| between them.
func (JacobCov) Score(net *nn.Network, loss nn.Loss, batch *nn.Data) (float64, error) {
	k := min(jacobSamples, batch.N())
	if k < 2 {
		return 0, fmt.Errorf("proxy: jacobcov needs at least 2 samples, batch has %d", batch.N())
	}
	grads := make([][]float64, k)
	for i := 0; i < k; i++ {
		g, err := paramGradient(net, loss, batch.Slice(i, i+1))
		if err != nil {
			return 0, err
		}
		grads[i] = g
	}
	// Correlation of each pair of gradient vectors; a zero-norm gradient
	// (dead network for that sample) counts as fully correlated — it cannot
	// distinguish inputs, the worst case for this proxy.
	norms := make([]float64, k)
	for i, g := range grads {
		s := 0.0
		for _, v := range g {
			s += v * v
		}
		norms[i] = math.Sqrt(s)
	}
	sum, pairs := 0.0, 0
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			pairs++
			if norms[a] == 0 || norms[b] == 0 {
				sum += 1
				continue
			}
			dot := 0.0
			for i, v := range grads[a] {
				dot += v * grads[b][i]
			}
			sum += math.Abs(dot / (norms[a] * norms[b]))
		}
	}
	return -sum / float64(pairs), nil
}

// paramGradient runs one forward + loss + backward pass and returns the
// flattened trainable-parameter gradient vector.
func paramGradient(net *nn.Network, loss nn.Loss, batch *nn.Data) ([]float64, error) {
	pred, err := net.Forward(batch.Inputs, true)
	if err != nil {
		return nil, fmt.Errorf("proxy: scoring forward: %w", err)
	}
	_, grad := loss.Forward(pred, batch.Targets)
	net.ZeroGrads()
	if err := net.Backward(grad); err != nil {
		return nil, fmt.Errorf("proxy: scoring backward: %w", err)
	}
	var flat []float64
	for _, p := range net.Params() {
		if !p.Trainable() || p.Grad == nil {
			continue
		}
		flat = append(flat, p.Grad.Data...)
	}
	return flat, nil
}
