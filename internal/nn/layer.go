// Package nn is a from-scratch neural-network training stack: layers with
// exact backpropagation, a DAG graph executor, losses, metrics, optimizers
// and a Keras-like fit loop with early stopping.
//
// It stands in for the TensorFlow/Keras stack used by the paper
// ("Accelerating DNN Architecture Search at Scale Using Selective Weight
// Transfer", CLUSTER'21): candidate models produced by the NAS search spaces
// are real networks trained with real gradients, so warm-starting them from a
// provider checkpoint genuinely changes their convergence — the effect the
// paper measures.
//
// Ownership: a training step allocates no tensor storage. Layers write their
// outputs, input gradients and Backward state into buffers they keep
// (buffers.go), so a tensor returned by a layer's Forward or Backward is
// valid until that layer's next Forward or Backward, and the network's
// output until the network's next Forward: use it or copy it out before then
// (Evaluate copies each batch's predictions). Some results are not the
// layer's own: Identity, Flatten, a pool degraded to the identity and
// Dropout at inference or rate 0 return what they were handed, or a view of
// it, in both directions; Add's Backward hands one tensor to both inputs.
// Nothing a layer is handed is ever written to. A layer none of whose inputs
// leads back to a parameter — a network's first layer — has no consumer for
// its input gradient: Network.Add tells it so and its Backward returns nil
// in the gradient's place.
//
// Concurrency: a Network and its layers are owned by a single goroutine —
// one evaluator drives one candidate, and per-layer state (cached
// activations, the retained buffers above) is caller-serialized: never call
// Forward/Backward on the same Network or Layer from two goroutines, and
// never overlap a Forward with the matching Backward. Two networks share
// nothing a step writes: ConvertNetwork's result holds no buffer of its
// source, and a loss value is stateless.
// Within one Forward/Backward call, however, a layer's loops may shard
// their rows across the process-wide worker pool in internal/parallel —
// when the call is large enough to pay for the handoff (the cost classes
// below and parallel.MinChunk decide; most calls of a small search are not).
// Every output element is written by exactly one shard in the serial order,
// so layer outputs and gradients are bit-identical at any worker count; only
// the scalar loss is summed from per-shard partials.
package nn

import "swtnas/internal/tensor"

// Per-item costs of the sharded loops, in the unit parallel.MinChunk takes:
// one unit is one multiply-add of the f32 GEMM tile kernels, 0.1–0.2 ns on
// the reference box. Each class is the measured serial cost of the loops it
// names as a power of two, rounded down when in doubt — a cost set too low
// keeps a call inline, one set too high splits a call that cannot pay for
// the handoff. DESIGN.md §9.5 has the ns-per-item readings.
const (
	costVector = 2  // element of a contiguous pass through a tensor package vector body: ReLU both ways, max-pool taps
	costStream = 8  // element read, combined and written once: col2im, Add, GlobalAvgPool, Gather, BatchNorm passes, the Tanh/Sigmoid gradient, the Sigmoid body
	costGather = 16 // element reached through a stride or an index: average-pool taps, the max-pool gradient scatter; the Tanh body
	costExp    = 64 // element through a scalar math.Exp: a softmax logit
)

// Param is one parameter tensor of a layer.
type ParamOf[T tensor.Float] struct {
	// Name identifies the tensor inside a checkpoint, e.g. "dense1/W".
	Name string
	// W holds the values; Grad the accumulated gradient of the current
	// backward pass. Grad is nil for non-trainable tensors (e.g. the
	// running statistics of a batch-normalization layer).
	W, Grad *tensor.TensorOf[T]
	// L2 is the L2 regularization coefficient applied to this tensor
	// (0 disables it). The paper's CIFAR-10 space uses 0.0005.
	L2 float64
}

// Trainable reports whether the optimizer should update this parameter.
func (p *ParamOf[T]) Trainable() bool { return p.Grad != nil }

// Layer is one operator in a computation graph. Forward must be called
// before Backward within the same pass: layers cache whatever intermediate
// state their gradient needs, and reuse what they return (package comment).
type LayerOf[T tensor.Float] interface {
	// Name returns the unique layer name within its network.
	Name() string
	// OutShape returns the per-sample output shape for the given
	// per-sample input shapes (the batch dimension is implicit).
	OutShape(in [][]int) ([]int, error)
	// Forward computes the batched output. training toggles
	// behaviour that differs between fitting and inference
	// (dropout masks, batch-norm statistics).
	Forward(in []*tensor.TensorOf[T], training bool) *tensor.TensorOf[T]
	// Backward consumes the gradient w.r.t. the output and returns the
	// gradients w.r.t. each input, in the same order as Forward's inputs;
	// an entry is nil where nobody consumes that gradient. Parameter
	// gradients are accumulated into the layer's Params. dOut is read-only
	// — the same tensor may be another layer's gradient too — and may
	// itself be returned as an input gradient.
	Backward(dOut *tensor.TensorOf[T]) []*tensor.TensorOf[T]
	// Params returns the layer's parameter tensors (possibly empty).
	// The first returned parameter is the layer's matching signature for
	// weight transfer (see internal/core).
	Params() []*ParamOf[T]
}

// ParamGroup couples all parameter tensors of one layer with the shape the
// weight-transfer matchers use as the layer's signature. Transferring a
// group copies every tensor in it (weights, biases, batch-norm statistics).
type ParamGroupOf[T tensor.Float] struct {
	// Layer is the owning layer's name.
	Layer string
	// Signature is the shape of the layer's primary weight tensor; two
	// groups are transferable iff their signatures are identical
	// (paper Section IV-A).
	Signature []int
	// Params lists every tensor of the layer, primary weight first.
	Params []*ParamOf[T]
}
