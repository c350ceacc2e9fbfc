package nn

import (
	"fmt"
	"math"

	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// Loss computes a scalar training loss and its gradient with respect to the
// network predictions. Targets are encoded as float64: class indices for
// classification, raw values for regression.
type LossOf[T tensor.Float] interface {
	Name() string
	// Forward returns the mean loss over the batch and d(loss)/d(pred), a
	// tensor of the caller's own. The scalar loss is always float64.
	Forward(pred *tensor.TensorOf[T], targets []float64) (float64, *tensor.TensorOf[T])
	// forwardInto is the fit loop's form of Forward: the gradient overwrites
	// grad (pred's shape), so a training step reuses one buffer.
	forwardInto(grad, pred *tensor.TensorOf[T], targets []float64) float64
}

// lossForward is Forward in terms of forwardInto.
func lossForward[T tensor.Float](l LossOf[T], pred *tensor.TensorOf[T], targets []float64) (float64, *tensor.TensorOf[T]) {
	grad := new(scratchOf[T]).buf(0, pred.Shape...)
	return l.forwardInto(grad, pred, targets), grad
}

// Metric scores predictions against targets (higher is better for every
// metric in this package, matching the paper's "objective metrics").
type MetricOf[T tensor.Float] interface {
	Name() string
	Eval(pred *tensor.TensorOf[T], targets []float64) float64
}

// SoftmaxCrossEntropy is categorical cross-entropy on logits [B, K]; the
// softmax is fused into the loss for numerical stability.
type SoftmaxCrossEntropyOf[T tensor.Float] struct{}

// Name returns "CE", the paper's Table I abbreviation.
func (SoftmaxCrossEntropyOf[T]) Name() string { return "CE" }

// Forward computes the mean cross-entropy and the fused softmax gradient
// (softmax(pred) - onehot(target)) / B. Rows shard across the pool when
// there are enough of them to pay for the handoff — a minibatch of the fit
// loop never is; gradients are per-row (worker-count invariant) and the
// scalar loss is reduced from per-shard partials in shard order.
func (l SoftmaxCrossEntropyOf[T]) Forward(pred *tensor.TensorOf[T], targets []float64) (float64, *tensor.TensorOf[T]) {
	return lossForward[T](l, pred, targets)
}

func (SoftmaxCrossEntropyOf[T]) forwardInto(grad, pred *tensor.TensorOf[T], targets []float64) float64 {
	b, k := pred.Shape[0], pred.Shape[1]
	if len(targets) != b {
		panic(fmt.Sprintf("nn: %d targets for batch of %d", len(targets), b))
	}
	shards := parallel.Shards(b, parallel.MinChunk(k*costExp))
	partial := make([]float64, shards)
	parallel.ForShardN(b, shards, func(shard, lo, hi int) {
		lossPart := 0.0
		for i := lo; i < hi; i++ {
			row := pred.Data[i*k : (i+1)*k]
			maxv := row[0]
			for _, v := range row[1:] {
				if v > maxv {
					maxv = v
				}
			}
			var sum T
			g := grad.Data[i*k : (i+1)*k]
			for j, v := range row {
				e := T(math.Exp(float64(v - maxv)))
				g[j] = e
				sum += e
			}
			label := int(targets[i])
			if label < 0 || label >= k {
				panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, k))
			}
			lossPart += -(float64(row[label]-maxv) - math.Log(float64(sum)))
			inv := 1 / sum
			for j := range g {
				g[j] *= inv
			}
			g[label] -= 1
		}
		partial[shard] = lossPart
	})
	loss := 0.0
	for _, p := range partial {
		loss += p
	}
	grad.Scale(T(1 / float64(b)))
	return loss / float64(b)
}

// MAE is the mean absolute error on [B, 1] (or [B]) predictions, the loss
// the paper uses for the Uno regression application.
type MAEOf[T tensor.Float] struct{}

// Name returns "MAE".
func (MAEOf[T]) Name() string { return "MAE" }

// Forward computes mean |pred-target| and its subgradient sign(pred-target)/B.
func (l MAEOf[T]) Forward(pred *tensor.TensorOf[T], targets []float64) (float64, *tensor.TensorOf[T]) {
	return lossForward[T](l, pred, targets)
}

func (MAEOf[T]) forwardInto(grad, pred *tensor.TensorOf[T], targets []float64) float64 {
	b := pred.Shape[0]
	if pred.Numel() != b {
		panic(fmt.Sprintf("nn: MAE wants one output per sample, got shape %s", tensor.ShapeString(pred.Shape)))
	}
	loss := 0.0
	for i := 0; i < b; i++ {
		d := float64(pred.Data[i]) - targets[i]
		loss += math.Abs(d)
		switch {
		case d > 0:
			grad.Data[i] = 1
		case d < 0:
			grad.Data[i] = -1
		default:
			grad.Data[i] = 0
		}
	}
	grad.Scale(T(1 / float64(b)))
	return loss / float64(b)
}

// Accuracy is the fraction of argmax predictions equal to the class label.
type AccuracyOf[T tensor.Float] struct{}

// Name returns "ACC".
func (AccuracyOf[T]) Name() string { return "ACC" }

// Eval scores logits [B, K] against class labels.
func (AccuracyOf[T]) Eval(pred *tensor.TensorOf[T], targets []float64) float64 {
	b, k := pred.Shape[0], pred.Shape[1]
	correct := 0
	for i := 0; i < b; i++ {
		row := pred.Data[i*k : (i+1)*k]
		arg := 0
		for j, v := range row {
			if v > row[arg] {
				arg = j
			}
		}
		if arg == int(targets[i]) {
			correct++
		}
	}
	return float64(correct) / float64(b)
}

// R2 is the coefficient of determination 1 - SS_res/SS_tot, the objective
// metric of the Uno application.
type R2Of[T tensor.Float] struct{}

// Name returns "R2".
func (R2Of[T]) Name() string { return "R2" }

// Eval scores [B, 1] (or [B]) predictions against regression targets.
// A constant target vector yields 0 (no variance to explain).
func (R2Of[T]) Eval(pred *tensor.TensorOf[T], targets []float64) float64 {
	b := pred.Shape[0]
	mean := 0.0
	for _, t := range targets {
		mean += t
	}
	mean /= float64(b)
	ssRes, ssTot := 0.0, 0.0
	for i := 0; i < b; i++ {
		d := targets[i] - float64(pred.Data[i])
		ssRes += float64(d * d)
		m := targets[i] - mean
		ssTot += float64(m * m)
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}
