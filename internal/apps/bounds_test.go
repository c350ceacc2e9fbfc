package apps

import (
	"fmt"
	"math/rand"
	"testing"

	"swtnas/internal/data"
	"swtnas/internal/nn"
	"swtnas/internal/search"
)

// size is what a part of a network holds: trainable parameters and per-sample
// activation elements (every layer's output elements and every same-padded
// convolution's bordered input copy, summed), the two quantities
// search.MaxParams and search.MaxActivations bound, and the largest
// input-gradient block of its convolutions, which MaxActivations bounds too.
type size struct{ params, acts, block int }

func netSize(net *nn.Network) size {
	s := size{params: net.ParamCount()}
	for i, l := range net.Layers() {
		n := 1
		for _, d := range net.ShapeOf(nn.InputRef(i)) {
			n *= d
		}
		s.acts += n
		var conv *nn.Conv2D
		switch c := l.(type) {
		case *nn.Conv2D:
			conv = c
		case *nn.Conv1D:
			conv = &c.Conv2DOf
		}
		if conv != nil {
			if h, w, copied := conv.BorderedInput(); copied {
				s.acts += h * w * conv.InC
			}
			s.block = max(s.block, conv.InputGradBlock())
		}
	}
	return s
}

// frontier maps each reachable frontier shape to the largest value of one
// quantity any choice of the nodes so far reaches it with.
type frontier map[string]struct {
	shape []int
	best  int
}

func (f frontier) offer(shape []int, v int) {
	k := fmt.Sprint(shape)
	if e, ok := f[k]; !ok || v > e.best {
		f[k] = struct {
			shape []int
			best  int
		}{shape, v}
	}
}

// throughNodes advances f through nodes in order. A node's op adds the same
// layers whatever came before it, given the frontier shape, so the largest
// total over every choice is exact: each op is built once per reachable
// shape, on a one-node network from that shape.
func throughNodes(t *testing.T, f frontier, nodes []*search.VariableNode, of func(size) int) frontier {
	for _, node := range nodes {
		next := frontier{}
		for _, e := range f {
			sp := &search.Space{Name: node.Name, Nodes: []*search.VariableNode{node}, InputShapes: [][]int{e.shape},
				Assemble: func(b *search.Builder, _ search.Arch) error {
					_, err := b.ApplyNode(0, nn.GraphInput(0))
					return err
				}}
			for c := range node.Ops {
				net, err := sp.Build(search.Arch{c}, rand.New(rand.NewSource(1)))
				if err != nil {
					t.Fatal(err)
				}
				next.offer(net.OutputShape(), e.best+of(netSize(net)))
			}
		}
		f = next
	}
	return f
}

// withHead is the largest total once the flatten and dense head of units
// outputs are added.
func withHead(f frontier, units int, of func(size) int) int {
	best := 0
	for _, e := range f {
		flat := 1
		for _, d := range e.shape {
			flat *= d
		}
		s := size{params: (flat + 1) * units, acts: units}
		if len(e.shape) > 1 {
			s.acts += flat
		}
		best = max(best, e.best+of(s))
	}
	return best
}

// largest is the exact largest value of one quantity over every candidate
// of app: the three sequential spaces in one pass, Uno's three towers each
// then every combination of their outputs into the concat and the trunk.
func largest(t *testing.T, app *App, of func(size) int) int {
	sp, ds := app.Space, app.Dataset
	if app.Name != "uno" {
		f := frontier{}
		f.offer(sp.InputShapes[0], 0)
		return withHead(throughNodes(t, f, sp.Nodes, of), ds.NumClasses, of)
	}
	var towers [3]frontier
	for tw := range towers {
		f := frontier{}
		f.offer(sp.InputShapes[tw], 0)
		towers[tw] = throughNodes(t, f, sp.Nodes[3*tw:3*tw+3], of)
	}
	cat := frontier{}
	for _, a := range towers[0] {
		for _, b := range towers[1] {
			for _, c := range towers[2] {
				w := a.shape[0] + b.shape[0] + c.shape[0] + sp.InputShapes[3][0]
				cat.offer([]int{w}, a.best+b.best+c.best+of(size{acts: w}))
			}
		}
	}
	return withHead(throughNodes(t, cat, sp.Nodes[9:], of), 1, of)
}

// TestSizeBoundsCoverBuiltInSpaces measures the exact largest parameter
// count and activation sum of each built-in space at default data sizes
// (logged, and recorded in DESIGN.md §5), checks both bounds are at least
// twice the largest, and checks the measurement against the networks of
// random candidates.
func TestSizeBoundsCoverBuiltInSpaces(t *testing.T) {
	for _, name := range data.Names() {
		app, err := New(name, 1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		p := largest(t, app, func(s size) int { return s.params })
		a := largest(t, app, func(s size) int { return s.acts })
		// The largest block of any convolution a candidate holds, in any
		// position: every op is built on every frontier shape it is reached
		// with. A first layer's counts, though it computes no input gradient.
		blk := 0
		largest(t, app, func(s size) int { blk = max(blk, s.block); return 0 })
		t.Logf("%s: largest candidate %d parameters, %d activation elements; largest input-gradient block %d", name, p, a, blk)
		if 2*p > search.MaxParams || 2*a > search.MaxActivations || 2*blk > search.MaxActivations {
			t.Errorf("%s: bounds %d parameters, %d activations are not twice the largest candidate and block", name, search.MaxParams, search.MaxActivations)
		}
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 20; i++ {
			net, err := app.Space.Build(app.Space.Random(rng), rng)
			if err != nil {
				t.Fatal(err)
			}
			if s := netSize(net); s.params > p || s.acts > a || s.block > blk {
				t.Fatalf("%s: a random candidate holds %+v, over the measured largest (%d, %d, %d)", name, s, p, a, blk)
			}
		}
	}
}
