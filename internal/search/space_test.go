package search

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"swtnas/internal/nn"
)

// testSpace builds a small 3-node sequential space over flat inputs.
func testSpace() *Space {
	nodes := []*VariableNode{
		{Name: "n0", Ops: []Op{OpIdentity(), OpDenseAct(8, nn.ReLU), OpDenseAct(4, nn.Tanh)}},
		{Name: "n1", Ops: []Op{OpIdentity(), OpDropout(0.5)}},
		{Name: "n2", Ops: []Op{OpIdentity(), OpDense(6), OpDense(3), OpBatchNorm()}},
	}
	s := &Space{
		Name:        "toy",
		Nodes:       nodes,
		InputShapes: [][]int{{5}},
		Loss:        nn.SoftmaxCrossEntropy{},
		Metric:      nn.Accuracy{},
		BatchSize:   4,
	}
	s.Assemble = func(b *Builder, arch Arch) error {
		ref := nn.GraphInput(0)
		var err error
		for i := range nodes {
			if ref, err = b.ApplyNode(i, ref); err != nil {
				return err
			}
		}
		flat, err := b.Flat(ref)
		if err != nil {
			return err
		}
		in := b.ShapeOf(flat)[0]
		_, err = b.Net.Add(nn.NewDense("head", in, 2, 0, b.RNG), flat)
		return err
	}
	return s
}

func TestArchStringAndDistance(t *testing.T) {
	a := Arch{1, 2, 0, 2}
	if a.String() != "[1, 2, 0, 2]" {
		t.Fatalf("String = %q", a.String())
	}
	// Paper Section V-A example: d([1,2,3],[0,2,3]) = 1.
	if d := Distance(Arch{1, 2, 3}, Arch{0, 2, 3}); d != 1 {
		t.Fatalf("Distance = %d, want 1", d)
	}
	if d := Distance(Arch{1, 2}, Arch{1, 2, 3}); d != -1 {
		t.Fatalf("cross-space distance = %d, want -1", d)
	}
	if d := Distance(a, a); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
}

func TestSpaceSizeAndValidate(t *testing.T) {
	s := testSpace()
	if s.Size().Int64() != 3*2*4 {
		t.Fatalf("Size = %v", s.Size())
	}
	if s.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", s.NumNodes())
	}
	if err := s.Validate(Arch{0, 1, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(Arch{0, 1}); err == nil {
		t.Fatal("short arch must fail validation")
	}
	if err := s.Validate(Arch{0, 2, 0}); err == nil {
		t.Fatal("out-of-range choice must fail validation")
	}
}

func TestRandomIsValid(t *testing.T) {
	s := testSpace()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if err := s.Validate(s.Random(rng)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMutateDistanceAlwaysOne(t *testing.T) {
	// Paper Algorithm 1: d between parent and child is always one.
	s := testSpace()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		parent := s.Random(rng)
		child, err := s.Mutate(parent, rng)
		if err != nil {
			t.Fatal(err)
		}
		if d := Distance(parent, child); d != 1 {
			t.Fatalf("mutation distance = %d (parent %s child %s)", d, parent, child)
		}
		if err := s.Validate(child); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMutateRejectsInvalidArch(t *testing.T) {
	s := testSpace()
	if _, err := s.Mutate(Arch{9, 9, 9}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid arch must error")
	}
}

func TestMutateNoMutableNodes(t *testing.T) {
	s := &Space{Name: "fixed", Nodes: []*VariableNode{{Name: "only", Ops: []Op{OpIdentity()}}}}
	if _, err := s.Mutate(Arch{0}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("space without mutable nodes must error")
	}
}

func TestBuildProducesTrainableNetwork(t *testing.T) {
	s := testSpace()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		arch := s.Random(rng)
		net, err := s.Build(arch, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatalf("build %s: %v", arch, err)
		}
		out := net.OutputShape()
		if len(out) != 1 || out[0] != 2 {
			t.Fatalf("output shape = %v", out)
		}
	}
}

func TestBuildDeterministicInSeed(t *testing.T) {
	s := testSpace()
	arch := Arch{1, 0, 1}
	a, err := s.Build(arch, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build(arch, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatal("same seed must produce identical weights")
			}
		}
	}
}

func TestBuildRejectsInvalidArch(t *testing.T) {
	s := testSpace()
	if _, err := s.Build(Arch{0}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid arch must error")
	}
}

func TestDescribe(t *testing.T) {
	s := testSpace()
	desc, err := s.Describe(Arch{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if desc == "" {
		t.Fatal("empty description")
	}
	if _, err := s.Describe(Arch{0}); err == nil {
		t.Fatal("invalid arch must error")
	}
}

// Property: distance is a metric on sequences of equal length (identity,
// symmetry, triangle inequality).
func TestQuickDistanceMetric(t *testing.T) {
	gen := func(vals []uint8) Arch {
		a := make(Arch, 6)
		for i := range a {
			if i < len(vals) {
				a[i] = int(vals[i] % 4)
			}
		}
		return a
	}
	f := func(x, y, z []uint8) bool {
		a, b, c := gen(x), gen(y), gen(z)
		if Distance(a, a) != 0 {
			return false
		}
		if Distance(a, b) != Distance(b, a) {
			return false
		}
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderTotalsMatchNetwork: on every candidate of the sample spec
// (convolution, pooling, batch norm, dense, residual and dropout ops) the
// totals the bounds are checked against are the built network's trainable
// parameters and summed per-sample layer outputs.
func TestBuilderTotalsMatchNetwork(t *testing.T) {
	spec, err := LoadSpec(strings.NewReader(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	space, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	seq := space.Assemble
	space.Assemble = func(b *Builder, arch Arch) error {
		if err := seq(b, arch); err != nil {
			return err
		}
		acts := 0
		for i := range b.Net.Layers() {
			acts += mul(b.ShapeOf(nn.InputRef(i))...)
		}
		if b.params != b.Net.ParamCount() || b.acts != acts {
			return fmt.Errorf("builder totals (%d, %d), network (%d, %d)", b.params, b.acts, b.Net.ParamCount(), acts)
		}
		return nil
	}
	arch := make(Arch, space.NumNodes())
	for n := space.Size().Int64(); n > 0; n-- {
		if _, err := space.Build(arch, rand.New(rand.NewSource(1))); err != nil {
			t.Fatal(err)
		}
		for i := range arch { // next architecture, node 0 fastest
			if arch[i]++; arch[i] < len(space.Nodes[i].Ops) {
				break
			}
			arch[i] = 0
		}
	}
}

// TestAdmitBoundsAreInclusive: a candidate may reach each bound exactly,
// and one more parameter, or one more layer's output, refuses it; a
// saturated product refuses it too.
func TestAdmitBoundsAreInclusive(t *testing.T) {
	b := &Builder{Net: nn.NewNetwork([]int{1})}
	if err := b.admit(MaxParams, MaxActivations); err != nil {
		t.Fatal(err)
	}
	if err := b.admit(1, 0); err == nil || !strings.Contains(err.Error(), "search.MaxParams") {
		t.Fatalf("one parameter over: %v", err)
	}
	b = &Builder{Net: nn.NewNetwork([]int{1}), acts: MaxActivations}
	if err := b.admit(0, 1); err == nil || !strings.Contains(err.Error(), "search.MaxActivations") {
		t.Fatalf("one activation over: %v", err)
	}
	b = &Builder{Net: nn.NewNetwork([]int{MaxActivations})}
	ref, err := b.Add(nn.NewIdentity("full"), nn.GraphInput(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Add(nn.NewIdentity("over"), ref); err == nil || !strings.Contains(err.Error(), "search.MaxActivations") {
		t.Fatalf("a layer past the activation bound: %v", err)
	}
	if p := mul(1<<40, 1<<40, 3); p != 1<<62 {
		t.Fatalf("mul did not saturate: %d", p)
	}
	if err := (&Builder{}).admit(mul(1<<31, 1<<31)+1, 1); err == nil {
		t.Fatal("a saturated count was admitted")
	}
}
