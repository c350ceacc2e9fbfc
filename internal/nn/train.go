package nn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"swtnas/internal/obs"
	"swtnas/internal/parallel"
	"swtnas/internal/tensor"
)

// Fit-loop telemetry (internal/obs, disabled by default): per-minibatch
// forward/backward/optimizer timings plus whole epochs, the breakdown
// behind candidate-estimation latency. Timers are no-ops (no time.Now)
// while the registry is disabled.
var (
	mFitForward   = obs.GetHistogram("nn.fit.forward.seconds", obs.DurationBuckets)
	mFitBackward  = obs.GetHistogram("nn.fit.backward.seconds", obs.DurationBuckets)
	mFitOptimizer = obs.GetHistogram("nn.fit.optimizer.seconds", obs.DurationBuckets)
	mFitEpoch     = obs.GetHistogram("nn.fit.epoch.seconds", obs.DurationBuckets)
	mFitBatches   = obs.GetCounter("nn.fit.batches")
	// mBufferBytes is the most element bytes one fitted network and its Fit
	// call retained between steps since the registry was reset (per search);
	// the mutex makes two evaluators' read-compare-set one step each.
	mBufferBytes  = obs.GetGauge("nn.buffers.bytes")
	bufferBytesMu sync.Mutex
)

// Data is a dataset split: one batched tensor per network input (first
// dimension = number of samples) plus the per-sample targets.
type DataOf[T tensor.Float] struct {
	Inputs  []*tensor.TensorOf[T]
	Targets []float64
}

// N returns the number of samples.
func (d *DataOf[T]) N() int {
	if len(d.Inputs) == 0 {
		return 0
	}
	return d.Inputs[0].Shape[0]
}

// Validate checks that every input tensor and the targets agree on N.
func (d *DataOf[T]) Validate() error {
	n := d.N()
	for i, in := range d.Inputs {
		if len(in.Shape) < 1 || in.Shape[0] != n {
			return fmt.Errorf("nn: input %d has %v samples, want %d", i, in.Shape, n)
		}
	}
	if len(d.Targets) != n {
		return fmt.Errorf("nn: %d targets for %d samples", len(d.Targets), n)
	}
	return nil
}

// Gather returns a new Data holding the rows selected by idx, in order.
// Row copies are sharded across the worker pool for large gathers;
// minibatch-sized gathers stay serial.
func (d *DataOf[T]) Gather(idx []int) *DataOf[T] {
	out := &DataOf[T]{}
	d.gatherInto(out, new(scratchOf[T]), idx)
	return out
}

// gatherInto is Gather into storage the caller keeps: input k fills slot k of
// bufs, out's Inputs and Targets are reused.
func (d *DataOf[T]) gatherInto(out *DataOf[T], bufs *scratchOf[T], idx []int) {
	out.Inputs = out.Inputs[:0]
	for k, in := range d.Inputs {
		rowLen := in.Numel() / in.Shape[0]
		g := bufs.buf(k, len(idx)*rowLen)
		g.Shape = append(append(g.Shape[:0], len(idx)), in.Shape[1:]...)
		parallel.For(len(idx), parallel.MinChunk(rowLen*costStream), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				r := idx[i]
				copy(g.Data[i*rowLen:(i+1)*rowLen], in.Data[r*rowLen:(r+1)*rowLen])
			}
		})
		out.Inputs = append(out.Inputs, g)
	}
	out.Targets = out.Targets[:0]
	for _, r := range idx {
		out.Targets = append(out.Targets, d.Targets[r])
	}
}

// Slice returns the half-open row range [lo, hi) as a view: the result's
// tensors and targets share d's storage — nothing is copied, write to neither.
func (d *DataOf[T]) Slice(lo, hi int) *DataOf[T] {
	out := &DataOf[T]{Targets: d.Targets[lo:hi]}
	for _, in := range d.Inputs {
		rowLen := in.Numel() / in.Shape[0]
		shape := append([]int{hi - lo}, in.Shape[1:]...)
		out.Inputs = append(out.Inputs, &tensor.TensorOf[T]{Shape: shape, Data: in.Data[lo*rowLen : hi*rowLen]})
	}
	return out
}

// FitConfig controls a training run.
type FitConfig struct {
	// Context, when non-nil, is checked between minibatches and epochs:
	// cancellation (or a deadline) stops training promptly mid-epoch and
	// Fit returns the context's error. nil never cancels. This is how
	// search-level cancellation stops a multi-minute candidate without
	// waiting for its epoch to finish.
	Context context.Context
	// Epochs is the maximum number of passes over the training data.
	Epochs int
	// BatchSize is the minibatch size (paper: 64 for CIFAR/MNIST,
	// 32 for NT3/Uno).
	BatchSize int
	// RNG shuffles samples each epoch; nil disables shuffling.
	RNG *rand.Rand
	// EarlyStopDelta / EarlyStopPatience implement the paper's rule
	// (Section VIII-B): stop when the validation objective changes by at
	// most Delta for Patience consecutive epochs. Patience 0 disables.
	EarlyStopDelta    float64
	EarlyStopPatience int
}

// History records the outcome of Fit.
type History struct {
	// TrainLoss is the mean minibatch loss per epoch.
	TrainLoss []float64
	// ValScore is the validation objective metric per epoch.
	ValScore []float64
	// EpochsRun counts completed epochs (== len(ValScore)).
	EpochsRun int
	// EarlyStopped reports whether the early-stopping rule fired.
	EarlyStopped bool
}

// FinalScore returns the last validation score, or -Inf when no epoch ran.
func (h *History) FinalScore() float64 {
	if len(h.ValScore) == 0 {
		return math.Inf(-1)
	}
	return h.ValScore[len(h.ValScore)-1]
}

// stepperOf is what one Fit call carries from step to step, the storage it
// keeps included: the gathered minibatch (slots 0…inputs−1 of bufs) and the
// loss gradient (the slot after).
type stepperOf[T tensor.Float] struct {
	net   *NetworkOf[T]
	loss  LossOf[T]
	opt   OptimizerOf[T]
	batch DataOf[T]
	bufs  scratchOf[T]
}

// step trains on rows idx of train and returns the minibatch loss.
func (s *stepperOf[T]) step(train *DataOf[T], idx []int) (float64, error) {
	train.gatherInto(&s.batch, &s.bufs, idx)
	tf := mFitForward.Start()
	pred, err := s.net.Forward(s.batch.Inputs, true)
	if err != nil {
		return 0, err
	}
	grad := s.bufs.buf(len(train.Inputs), pred.Shape...)
	l := s.loss.forwardInto(grad, pred, s.batch.Targets)
	tf.Stop()
	tb := mFitBackward.Start()
	s.net.ZeroGrads()
	if err := s.net.Backward(grad); err != nil {
		return 0, err
	}
	tb.Stop()
	to := mFitOptimizer.Start()
	s.opt.Step(s.net.Params())
	to.Stop()
	mFitBatches.Inc()
	return l, nil
}

// noteBufferBytes raises nn.buffers.bytes to what s and its network retain.
func (s *stepperOf[T]) noteBufferBytes() {
	if !obs.Enabled() {
		return
	}
	b := int64(s.net.bufferBytes() + s.bufs.bytes())
	bufferBytesMu.Lock()
	defer bufferBytesMu.Unlock()
	if b > mBufferBytes.Value() {
		mBufferBytes.Set(b)
	}
}

// Fit trains net with the given loss/metric/optimizer. It returns the
// training history; the network is left holding the final weights.
func Fit[T tensor.Float](net *NetworkOf[T], loss LossOf[T], metric MetricOf[T], opt OptimizerOf[T], train, val *DataOf[T], cfg FitConfig) (*History, error) {
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if err := val.Validate(); err != nil {
		return nil, err
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("nn: batch size %d must be positive", cfg.BatchSize)
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("nn: epochs %d must be positive", cfg.Epochs)
	}
	n := train.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	h := &History{}
	st := &stepperOf[T]{net: net, loss: loss, opt: opt}
	flat := 0 // consecutive epochs with |Δscore| <= delta
	prevScore := math.NaN()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.RNG != nil {
			cfg.RNG.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		epochLoss := 0.0
		batches := 0
		epochTimer := mFitEpoch.Start()
		for lo := 0; lo < n; lo += cfg.BatchSize {
			if cfg.Context != nil {
				if err := cfg.Context.Err(); err != nil {
					return nil, err
				}
			}
			hi := lo + cfg.BatchSize
			if hi > n {
				hi = n
			}
			l, err := st.step(train, order[lo:hi])
			if err != nil {
				return nil, err
			}
			epochLoss += l
			batches++
		}
		epochTimer.Stop()
		h.TrainLoss = append(h.TrainLoss, epochLoss/float64(batches))
		score, err := Evaluate(net, metric, val, cfg.BatchSize)
		if err != nil {
			return nil, err
		}
		st.noteBufferBytes()
		h.ValScore = append(h.ValScore, score)
		h.EpochsRun++

		if cfg.EarlyStopPatience > 0 {
			if !math.IsNaN(prevScore) && math.Abs(score-prevScore) <= cfg.EarlyStopDelta {
				flat++
				if flat >= cfg.EarlyStopPatience {
					h.EarlyStopped = true
					return h, nil
				}
			} else {
				flat = 0
			}
			prevScore = score
		}
	}
	return h, nil
}

// Evaluate computes the metric over data in inference mode, batched so the
// memory footprint stays bounded.
func Evaluate[T tensor.Float](net *NetworkOf[T], metric MetricOf[T], data *DataOf[T], batchSize int) (float64, error) {
	if err := data.Validate(); err != nil {
		return 0, err
	}
	if batchSize <= 0 {
		return 0, fmt.Errorf("nn: batch size %d must be positive", batchSize)
	}
	n := data.N()
	if n == 0 {
		return 0, fmt.Errorf("nn: cannot evaluate on empty data")
	}
	var all *tensor.TensorOf[T]
	rowLen := 0
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		batch := data.Slice(lo, hi)
		pred, err := net.Forward(batch.Inputs, false)
		if err != nil {
			return 0, err
		}
		if all == nil {
			rowLen = pred.Numel() / pred.Shape[0]
			shape := append([]int{n}, pred.Shape[1:]...)
			all = tensor.NewOf[T](shape...)
		}
		copy(all.Data[lo*rowLen:hi*rowLen], pred.Data)
	}
	return metric.Eval(all, data.Targets), nil
}
