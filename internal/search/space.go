// Package search implements the NAS search-space engine of the paper's
// Section II: a search space is a graph containing variable nodes, each of
// which holds a set of valid operation choices; a candidate model is
// identified by its architecture sequence — the vector of per-node choice
// indices. The package also provides the candidate builder that turns an
// architecture sequence into a trainable internal/nn network.
package search

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"

	"swtnas/internal/nn"
	"swtnas/internal/tensor"
)

// Arch is an architecture sequence: one choice index per variable node.
type Arch []int

// Clone returns a copy of the sequence.
func (a Arch) Clone() Arch { return append(Arch(nil), a...) }

// String renders the sequence like "[1, 2, 0, 2]" (paper Figure 1).
func (a Arch) String() string {
	parts := make([]string, len(a))
	for i, v := range a {
		parts[i] = fmt.Sprint(v)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Key returns a map-key representation of the sequence.
func (a Arch) Key() string { return a.String() }

// Distance returns the architecture distance d of the paper's Section V-A:
// the number of positions where the two sequences choose differently.
// Sequences from different spaces (different lengths) have distance -1.
func Distance(a, b Arch) int {
	if len(a) != len(b) {
		return -1
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// VariableNode is one decision point of a search space.
type VariableNode struct {
	// Name describes the node's role, e.g. "block1/conv0".
	Name string
	// Ops is the node's list of valid choices.
	Ops []Op
}

// Op is one operation choice of a variable node. Apply appends the layers
// realizing the choice to the network under construction and returns the
// new frontier reference.
type Op struct {
	// Label is the human-readable choice description, e.g. "Dense(64, relu)".
	Label string
	// Apply materializes the choice.
	Apply func(b *Builder, ref nn.InputRef) (nn.InputRef, error)
}

// Space is a NAS search space plus everything needed to train candidates.
type Space struct {
	// Name is the application name ("cifar10", ...).
	Name string
	// Nodes are the variable nodes in architecture-sequence order.
	Nodes []*VariableNode
	// InputShapes lists the per-sample shapes of the model inputs.
	InputShapes [][]int
	// Assemble wires a full candidate network: it must apply the chosen
	// op of every variable node (via Builder.ApplyNode) and attach the
	// space's fixed head.
	Assemble func(b *Builder, arch Arch) error

	// Loss and Metric define training and the objective metric.
	Loss   nn.Loss
	Metric nn.Metric
	// BatchSize is the per-app minibatch size (paper: 64 CIFAR/MNIST,
	// 32 NT3/Uno).
	BatchSize int
	// EarlyStopDelta is the app's early-stopping threshold for full
	// training (paper Section VIII-B).
	EarlyStopDelta float64
}

// NumNodes returns the number of variable nodes (#VNs of Table I).
func (s *Space) NumNodes() int { return len(s.Nodes) }

// Size returns the number of candidate models in the space: the product of
// the per-node choice counts.
func (s *Space) Size() *big.Int {
	size := big.NewInt(1)
	for _, n := range s.Nodes {
		size.Mul(size, big.NewInt(int64(len(n.Ops))))
	}
	return size
}

// Validate checks that arch is a well-formed sequence for this space.
func (s *Space) Validate(arch Arch) error {
	if len(arch) != len(s.Nodes) {
		return fmt.Errorf("search: arch has %d choices, space %q has %d nodes", len(arch), s.Name, len(s.Nodes))
	}
	for i, c := range arch {
		if c < 0 || c >= len(s.Nodes[i].Ops) {
			return fmt.Errorf("search: choice %d at node %q out of range [0,%d)", c, s.Nodes[i].Name, len(s.Nodes[i].Ops))
		}
	}
	return nil
}

// Random samples an architecture sequence uniformly at random.
func (s *Space) Random(rng *rand.Rand) Arch {
	arch := make(Arch, len(s.Nodes))
	for i, n := range s.Nodes {
		arch[i] = rng.Intn(len(n.Ops))
	}
	return arch
}

// Mutate returns a copy of arch with exactly one variable node re-chosen to
// a different valid option (the regularized-evolution mutation of paper
// Algorithm 1; the resulting distance d to arch is always 1). Nodes with a
// single choice are never selected.
func (s *Space) Mutate(arch Arch, rng *rand.Rand) (Arch, error) {
	if err := s.Validate(arch); err != nil {
		return nil, err
	}
	mutable := make([]int, 0, len(s.Nodes))
	for i, n := range s.Nodes {
		if len(n.Ops) > 1 {
			mutable = append(mutable, i)
		}
	}
	if len(mutable) == 0 {
		return nil, fmt.Errorf("search: space %q has no mutable nodes", s.Name)
	}
	child := arch.Clone()
	i := mutable[rng.Intn(len(mutable))]
	for {
		c := rng.Intn(len(s.Nodes[i].Ops))
		if c != arch[i] {
			child[i] = c
			break
		}
	}
	return child, nil
}

// Describe renders the chosen operation labels for an architecture.
func (s *Space) Describe(arch Arch) (string, error) {
	if err := s.Validate(arch); err != nil {
		return "", err
	}
	parts := make([]string, len(arch))
	for i, c := range arch {
		parts[i] = fmt.Sprintf("%s=%s", s.Nodes[i].Name, s.Nodes[i].Ops[c].Label)
	}
	return strings.Join(parts, ", "), nil
}

// Build materializes the candidate identified by arch into a trainable
// network. rng seeds the fresh weight initialization and dropout masks.
func (s *Space) Build(arch Arch, rng *rand.Rand) (*nn.Network, error) {
	if err := s.Validate(arch); err != nil {
		return nil, err
	}
	b := &Builder{
		Net:   nn.NewNetwork(s.InputShapes...),
		RNG:   rng,
		space: s,
		arch:  arch,
	}
	if err := s.Assemble(b, arch); err != nil {
		return nil, fmt.Errorf("search: building %s %s: %w", s.Name, arch, err)
	}
	if b.applied != len(s.Nodes) {
		return nil, fmt.Errorf("search: space %q applied %d of %d variable nodes", s.Name, b.applied, len(s.Nodes))
	}
	return b.Net, nil
}

// BuildSeeded is Build with the rand.Rand of a tensor.Stream seeded with
// seed, whose draws are rand.NewSource(seed)'s: the weights are those Build
// draws from rand.New(rand.NewSource(seed)), and the dropout layers draw
// their masks from the same stream in bulk (nn.NetworkOf.DrawFrom). It
// returns the stream's rand.Rand too: the candidate's epoch shuffles draw
// from it, after its initialization and interleaved with its masks.
func (s *Space) BuildSeeded(arch Arch, seed int64) (*nn.Network, *rand.Rand, error) {
	st := tensor.NewStream(seed)
	net, err := s.Build(arch, st.Rand())
	if err != nil {
		return nil, nil, err
	}
	net.DrawFrom(st)
	return net, st.Rand(), nil
}

// The bounds on one candidate, the same for every space (DESIGN.md §5):
// its trainable parameters, and its per-sample activation elements — the
// output elements of every layer and the zero-bordered input copy of every
// same-padded convolution, summed. An op that constructs weights
// checks both totals before it constructs them (Builder.Dense and the
// convolution and batch-norm ops), and Builder.Add checks the activations of
// every layer, so a candidate over either bound fails to build without
// allocating it. MaxActivations also bounds the one block of patch gradients
// a convolution computes its input gradient through (Builder.gradBlock).
// Each is at least twice the largest candidate (and block) of the four
// built-in spaces at default data sizes (TestSizeBoundsCoverBuiltInSpaces).
const (
	MaxParams      = 1 << 22
	MaxActivations = 1 << 17
)

// Builder accumulates a candidate network during Space.Build.
type Builder struct {
	// Net is the network under construction.
	Net *nn.Network
	// RNG seeds weight initialization and dropout.
	RNG *rand.Rand

	space   *Space
	arch    Arch
	applied int
	counter int
	// params and acts are the candidate's totals so far (MaxParams,
	// MaxActivations).
	params, acts int
}

// admit charges params trainable parameters and the layer's own scratch
// per-sample elements (a convolution's bordered input copy) to the
// candidate, and refuses a layer that would take either total past its
// bound, counting the outElems per-sample outputs Add will charge it. Ops
// call it before constructing a layer with weights.
func (b *Builder) admit(params, scratch, outElems int) error {
	if params > MaxParams-b.params {
		return fmt.Errorf("%d parameters on top of %d pass the bound of %d (search.MaxParams)", params, b.params, MaxParams)
	}
	b.params += params
	if err := b.fits(scratch); err != nil {
		return err
	}
	b.acts += scratch
	return b.fits(outElems)
}

// gradBlock refuses a convolution on ref whose input-gradient block — the
// patch gradients of one strip of samples, elems of them
// (nn.Conv2DOf.InputGradBlock), which each kernel shard holds — exceeds
// MaxActivations. A convolution whose input leads back to no parameter
// computes no input gradient, and holds no block.
func (b *Builder) gradBlock(ref nn.InputRef, elems int) error {
	if b.Net.Live(ref) && elems > MaxActivations {
		return fmt.Errorf("%d input-gradient elements in one block pass the bound of %d (search.MaxActivations)", elems, MaxActivations)
	}
	return nil
}

// bordered is the per-sample element count of the bordered input copy conv,
// its output shape inferred, makes (nn.Conv2DOf.BorderedInput), 0 if none.
func bordered(conv *nn.Conv2D) int {
	h, w, copied := conv.BorderedInput()
	if !copied {
		return 0
	}
	return mul(h, w, conv.InC)
}

// fits refuses elems more per-sample activation elements where they would
// take the candidate past MaxActivations.
func (b *Builder) fits(elems int) error {
	if elems > MaxActivations-b.acts {
		return fmt.Errorf("%d activation elements on top of %d pass the bound of %d (search.MaxActivations)", elems, b.acts, MaxActivations)
	}
	return nil
}

// Add appends layer l on inputs to the network and charges its per-sample
// output elements to the candidate, refusing the candidate when they take
// it past MaxActivations. Every op adds its layers through it.
func (b *Builder) Add(l nn.Layer, inputs ...nn.InputRef) (nn.InputRef, error) {
	ref, err := b.Net.Add(l, inputs...)
	if err != nil {
		return 0, err
	}
	elems := mul(b.ShapeOf(ref)...)
	if err := b.fits(elems); err != nil {
		return 0, err
	}
	b.acts += elems
	return ref, nil
}

// Dense adds a dense layer of the given width and name on the flat frontier
// ref, after admit has checked its (in+1)·units parameters and units
// outputs.
func (b *Builder) Dense(name string, ref nn.InputRef, units int) (nn.InputRef, error) {
	in := b.ShapeOf(ref)[0]
	if err := b.admit(mul(in+1, units), 0, units); err != nil {
		return 0, err
	}
	return b.Add(nn.NewDense(name, in, units, 0, b.RNG), ref)
}

// mul is the product of positive xs, saturated at 1<<62: a count that large
// is over every bound, and a sum of two of them cannot overflow.
func mul(xs ...int) int {
	p := 1
	for _, x := range xs {
		if p > (1<<62)/x {
			return 1 << 62
		}
		p *= x
	}
	return p
}

// FreshName returns a unique layer name with the given kind prefix.
func (b *Builder) FreshName(kind string) string {
	b.counter++
	return fmt.Sprintf("%s%d", kind, b.counter)
}

// ShapeOf exposes the per-sample shape at a frontier reference.
func (b *Builder) ShapeOf(ref nn.InputRef) []int { return b.Net.ShapeOf(ref) }

// ApplyNode applies the arch-chosen op of variable node i to ref and
// returns the new frontier. Assemble implementations must call it exactly
// once per node, in any topology the space requires.
func (b *Builder) ApplyNode(i int, ref nn.InputRef) (nn.InputRef, error) {
	if i < 0 || i >= len(b.space.Nodes) {
		return 0, fmt.Errorf("search: variable node index %d out of range", i)
	}
	node := b.space.Nodes[i]
	op := node.Ops[b.arch[i]]
	out, err := op.Apply(b, ref)
	if err != nil {
		return 0, fmt.Errorf("node %q choice %q: %w", node.Name, op.Label, err)
	}
	b.applied++
	return out, nil
}

// Sequential returns the Assemble of a sequential space: the chosen op of
// every variable node in order on the one input, then a flatten where the
// frontier is not flat and a dense head of out units named "head".
func Sequential(out int) func(b *Builder, arch Arch) error {
	return func(b *Builder, _ Arch) error {
		ref := nn.GraphInput(0)
		var err error
		for i := range b.space.Nodes {
			if ref, err = b.ApplyNode(i, ref); err != nil {
				return err
			}
		}
		if ref, err = b.Flat(ref); err != nil {
			return err
		}
		_, err = b.Dense("head", ref, out)
		return err
	}
}

// Flat ensures the frontier holds a flat [B, D] activation, inserting a
// Flatten layer when needed (the Keras-style implicit flatten before dense
// heads).
func (b *Builder) Flat(ref nn.InputRef) (nn.InputRef, error) {
	shape := b.ShapeOf(ref)
	if shape == nil {
		return 0, fmt.Errorf("search: unknown shape at ref %d", ref)
	}
	if len(shape) == 1 {
		return ref, nil
	}
	return b.Add(nn.NewFlatten(b.FreshName("flatten")), ref)
}
