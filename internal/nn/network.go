package nn

import (
	"fmt"

	"swtnas/internal/tensor"
)

// InputRef encodes a node input: values >= 0 index previously added nodes,
// values < 0 reference graph inputs (GraphInput(i) == -(i+1)).
type InputRef int

// GraphInput returns the InputRef addressing the i-th network input.
func GraphInput(i int) InputRef { return InputRef(-(i + 1)) }

func (r InputRef) isGraphInput() bool { return r < 0 }
func (r InputRef) graphInputIndex() int {
	return int(-r) - 1
}

type node[T tensor.Float] struct {
	layer  LayerOf[T]
	inputs []InputRef
	ins    []*tensor.TensorOf[T] // Forward's argument slice, refilled every pass
	out    *tensor.TensorOf[T]   // forward cache for the current pass
	grad   *tensor.TensorOf[T]   // accumulated dOut for the current backward pass
	users  int                   // consuming edges, counted by Add; 1 lets Backward adopt a gradient
	live   bool                  // the node, or one upstream of it, has parameters: its dOut is worth computing
}

// Network is a DAG of layers evaluated in insertion (topological) order.
// The last added node is the network output unless SetOutput overrides it.
type NetworkOf[T tensor.Float] struct {
	nodes       []*node[T]
	numInputs   int
	inputShapes [][]int // per-sample shapes of the graph inputs
	nodeShapes  [][]int // per-sample output shape of each node
	output      int
	// sums is the gradient a fan-out node i adds its consumers' into, slot i
	// (buffers.go).
	sums scratchOf[T]
	// params caches Params(); Add drops it.
	params []*ParamOf[T]
}

// NewNetwork creates a network with the given per-sample input shapes
// (one per graph input, batch dimension excluded).
func NewNetwork(inputShapes ...[]int) *Network { return NewNetworkOf[float64](inputShapes...) }

// NewNetworkOf creates a network of the given element type; see NewNetwork.
// Search builders always construct in float64 and cast once via
// ConvertNetwork before f32 training (DESIGN.md §14).
func NewNetworkOf[T tensor.Float](inputShapes ...[]int) *NetworkOf[T] {
	shapes := make([][]int, len(inputShapes))
	for i, s := range inputShapes {
		shapes[i] = append([]int(nil), s...)
	}
	return &NetworkOf[T]{numInputs: len(inputShapes), inputShapes: shapes, output: -1}
}

// Add appends a layer consuming the given inputs and returns its node index.
// Inputs must reference graph inputs or previously added nodes; shape
// inference runs eagerly and errors are returned to the caller (NAS builders
// rely on this to validate candidate architectures).
func (n *NetworkOf[T]) Add(l LayerOf[T], inputs ...InputRef) (InputRef, error) {
	inShapes := make([][]int, len(inputs))
	deadIn := true // no input leads back to a parameter: nobody consumes the layer's input gradients
	for i, ref := range inputs {
		switch {
		case ref.isGraphInput():
			gi := ref.graphInputIndex()
			if gi >= n.numInputs {
				return 0, fmt.Errorf("nn: layer %q references graph input %d of %d", l.Name(), gi, n.numInputs)
			}
			inShapes[i] = n.inputShapes[gi]
		case int(ref) >= len(n.nodes):
			return 0, fmt.Errorf("nn: layer %q references future node %d", l.Name(), ref)
		default:
			inShapes[i] = n.nodeShapes[ref]
			deadIn = deadIn && !n.nodes[ref].live
		}
	}
	out, err := l.OutShape(inShapes)
	if err != nil {
		return 0, fmt.Errorf("nn: layer %q: %w", l.Name(), err)
	}
	if sb, ok := l.(stepLayerOf[T]); ok {
		sb.stepBufs().deadIn = deadIn
	}
	for _, ref := range inputs {
		if !ref.isGraphInput() {
			n.nodes[ref].users++
		}
	}
	n.nodes = append(n.nodes, &node[T]{layer: l, inputs: append([]InputRef(nil), inputs...),
		ins: make([]*tensor.TensorOf[T], len(inputs)), live: !deadIn || len(l.Params()) > 0})
	n.nodeShapes = append(n.nodeShapes, out)
	n.output = len(n.nodes) - 1
	n.params = nil
	return InputRef(n.output), nil
}

// Live reports whether a gradient flows back through ref: it is a node that
// has parameters or one upstream of it does. A layer consuming only refs
// that are not live (graph inputs among them) computes no input gradient.
func (n *NetworkOf[T]) Live(ref InputRef) bool {
	return !ref.isGraphInput() && int(ref) < len(n.nodes) && n.nodes[ref].live
}

// MustAdd is Add for statically known-valid graphs; it panics on error.
func (n *NetworkOf[T]) MustAdd(l LayerOf[T], inputs ...InputRef) InputRef {
	ref, err := n.Add(l, inputs...)
	if err != nil {
		panic(err)
	}
	return ref
}

// SetOutput designates the node whose value Forward returns.
func (n *NetworkOf[T]) SetOutput(ref InputRef) error {
	if ref.isGraphInput() || int(ref) >= len(n.nodes) {
		return fmt.Errorf("nn: invalid output ref %d", ref)
	}
	n.output = int(ref)
	return nil
}

// OutputShape returns the per-sample shape of the network output.
func (n *NetworkOf[T]) OutputShape() []int {
	if n.output < 0 {
		return nil
	}
	return n.nodeShapes[n.output]
}

// Forward evaluates the graph on a batch. Each input tensor's first
// dimension is the batch size; all batch sizes must agree. The result is a
// retained buffer (or an input, through aliasing layers): valid until the
// next Forward.
func (n *NetworkOf[T]) Forward(inputs []*tensor.TensorOf[T], training bool) (*tensor.TensorOf[T], error) {
	if len(inputs) != n.numInputs {
		return nil, fmt.Errorf("nn: forward got %d inputs, want %d", len(inputs), n.numInputs)
	}
	if n.output < 0 {
		return nil, fmt.Errorf("nn: network has no nodes")
	}
	for _, nd := range n.nodes {
		nd.grad = nil
		for i, ref := range nd.inputs {
			if ref.isGraphInput() {
				nd.ins[i] = inputs[ref.graphInputIndex()]
			} else {
				nd.ins[i] = n.nodes[ref].out
			}
		}
		nd.out = nd.layer.Forward(nd.ins, training)
	}
	return n.nodes[n.output].out, nil
}

// Backward propagates dOut (gradient w.r.t. the network output of the most
// recent Forward pass) through the graph, accumulating parameter gradients.
func (n *NetworkOf[T]) Backward(dOut *tensor.TensorOf[T]) error {
	if n.output < 0 {
		return fmt.Errorf("nn: network has no nodes")
	}
	out := n.nodes[n.output]
	if out.out == nil {
		return fmt.Errorf("nn: Backward called before Forward")
	}
	out.grad = dOut
	for i := len(n.nodes) - 1; i >= 0; i-- {
		nd := n.nodes[i]
		if nd.grad == nil {
			continue // dead branch: no consumer contributed gradient
		}
		dIns := nd.layer.Backward(nd.grad)
		if len(dIns) != len(nd.inputs) {
			return fmt.Errorf("nn: layer %q returned %d input grads, want %d", nd.layer.Name(), len(dIns), len(nd.inputs))
		}
		for j, ref := range nd.inputs {
			if ref.isGraphInput() || dIns[j] == nil || !n.nodes[ref].live {
				continue
			}
			// A node with one consumer takes that consumer's gradient as
			// is: nothing will be added to it, and no layer writes to the
			// dOut it is handed. Only a fan-out node needs a tensor of its
			// own to sum into.
			pred := n.nodes[ref]
			switch {
			case pred.grad != nil:
				if err := pred.grad.AddScaled(dIns[j], 1); err != nil {
					return err
				}
			case pred.users == 1:
				pred.grad = dIns[j]
			default:
				pred.grad = n.sums.buf(int(ref), dIns[j].Shape...)
				copy(pred.grad.Data, dIns[j].Data)
			}
		}
	}
	return nil
}

// bufferBytes is the element storage the network and its layers retain.
func (n *NetworkOf[T]) bufferBytes() int {
	b := n.sums.bytes()
	for _, nd := range n.nodes {
		if sb, ok := nd.layer.(stepLayerOf[T]); ok {
			b += sb.stepBufs().bytes()
		}
	}
	return b
}

// ZeroGrads clears every trainable parameter gradient.
func (n *NetworkOf[T]) ZeroGrads() {
	for _, p := range n.Params() {
		if p.Grad != nil {
			p.Grad.Zero()
		}
	}
}

// Params returns every parameter tensor in topological layer order. The
// slice is cached until the next Add: read it, do not write to it.
func (n *NetworkOf[T]) Params() []*ParamOf[T] {
	if n.params == nil {
		for _, nd := range n.nodes {
			n.params = append(n.params, nd.layer.Params()...)
		}
	}
	return n.params[:len(n.params):len(n.params)]
}

// ParamGroups returns the per-layer parameter groups in topological order.
// The sequence of group signatures is the network's shape sequence used by
// the LP and LCS weight-transfer matchers.
func (n *NetworkOf[T]) ParamGroups() []ParamGroupOf[T] {
	var gs []ParamGroupOf[T]
	for _, nd := range n.nodes {
		ps := nd.layer.Params()
		if len(ps) == 0 {
			continue
		}
		gs = append(gs, ParamGroupOf[T]{
			Layer:     nd.layer.Name(),
			Signature: append([]int(nil), ps[0].W.Shape...),
			Params:    ps,
		})
	}
	return gs
}

// ParamCount returns the total number of trainable scalar parameters,
// the model-complexity proxy of the paper's Table IV.
func (n *NetworkOf[T]) ParamCount() int {
	c := 0
	for _, p := range n.Params() {
		if p.Trainable() {
			c += p.W.Numel()
		}
	}
	return c
}

// ShapeOf returns the per-sample shape of a node output or graph input,
// or nil for invalid references. NAS builders use it to infer the widths of
// layers they append.
func (n *NetworkOf[T]) ShapeOf(ref InputRef) []int {
	if ref.isGraphInput() {
		gi := ref.graphInputIndex()
		if gi >= n.numInputs {
			return nil
		}
		return n.inputShapes[gi]
	}
	if int(ref) >= len(n.nodes) {
		return nil
	}
	return n.nodeShapes[ref]
}

// DrawFrom hands s to every dropout layer built with s.Rand(): each then
// draws its masks from s in bulk (tensor.Dropout), the same draws in the
// same order as one rng.Float64 per element. A layer built with another
// rand.Rand keeps drawing from it.
func (n *NetworkOf[T]) DrawFrom(s *tensor.Stream) {
	for _, nd := range n.nodes {
		if d, ok := nd.layer.(*DropoutOf[T]); ok && d.rng == s.Rand() {
			d.stream = s
		}
	}
}

// Layers returns the layers in topological order (read-only use).
func (n *NetworkOf[T]) Layers() []LayerOf[T] {
	ls := make([]LayerOf[T], len(n.nodes))
	for i, nd := range n.nodes {
		ls[i] = nd.layer
	}
	return ls
}
