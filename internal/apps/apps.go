// Package apps defines the four application search spaces of the paper's
// Section VII-A (CIFAR-10, MNIST, NT3, Uno) over the synthetic datasets of
// internal/data, together with the per-application training configuration
// (batch size, early-stopping threshold) from Sections VII-A and VIII-B.
package apps

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"

	"swtnas/internal/data"
	"swtnas/internal/nn"
	"swtnas/internal/search"
)

// App bundles a search space with its dataset and training budget.
type App struct {
	// Name is the application name ("cifar10", "mnist", "nt3", "uno").
	Name string
	// Space is the NAS search space.
	Space *search.Space
	// Dataset holds the train/validation splits.
	Dataset *data.Dataset
	// PartialEpochs is the candidate-estimation budget (paper: 1 epoch).
	PartialEpochs int
	// FullMaxEpochs caps full training (paper: 20 epochs).
	FullMaxEpochs int
	// EarlyStopPatience is the paper's fixed 2-epoch patience.
	EarlyStopPatience int
	// Identity names the space in a journal header: a built-in space's
	// bare name; for a spec's space, its name and a digest of what the
	// spec compiled to, so a resume refuses a spec changed under its name.
	Identity string
}

// Config adjusts dataset sizes and may replace the search space; the zero
// value uses the defaults.
type Config struct {
	Data data.Config
	// SpaceJSON, when set, is a search.Spec in JSON: its sequential space is
	// searched in place of the application's, which then provides only the
	// dataset and training budget.
	SpaceJSON string
}

// New builds the named application. The seed controls dataset generation
// only; candidate weight initialization is seeded per candidate by the NAS
// framework. A cfg.SpaceJSON spec is parsed and compiled before the dataset
// is generated, then admitted against it (admitSpec); the App takes the
// spec's space and name.
func New(name string, seed int64, cfg Config) (*App, error) {
	var spec *search.Spec
	var custom *search.Space
	if cfg.SpaceJSON != "" {
		var err error
		if spec, err = search.LoadSpec(strings.NewReader(cfg.SpaceJSON)); err != nil {
			return nil, err
		}
		if custom, err = spec.Compile(); err != nil {
			return nil, err
		}
	}
	ds, err := data.ByName(name, seed, cfg.Data)
	if err != nil {
		return nil, err
	}
	app := &App{
		Name:              name,
		Dataset:           ds,
		PartialEpochs:     1,
		FullMaxEpochs:     20,
		EarlyStopPatience: 2,
	}
	switch name {
	case "cifar10":
		app.Space = cifar10Space(ds)
	case "mnist":
		app.Space = mnistSpace(ds)
	case "nt3":
		app.Space = nt3Space(ds)
		// The paper estimates every candidate with one epoch; on the
		// scaled datasets one epoch is far fewer optimizer steps than
		// the originals (NT3: 5 vs 35, Uno: 16 vs 300), so the partial
		// budget is raised to keep the estimation unit's optimizer
		// progress comparable (see DESIGN.md substitution #2).
		app.PartialEpochs = 2
	case "uno":
		app.Space = unoSpace(ds)
		app.PartialEpochs = 3
	default:
		return nil, fmt.Errorf("apps: unknown application %q", name)
	}
	if custom != nil {
		if err := admitSpec(spec, custom, ds, name); err != nil {
			return nil, err
		}
		app.Space, app.Name = custom, custom.Name
		app.Identity = specIdentity(spec, custom)
	} else {
		app.Identity = name
	}
	return app, nil
}

// specIdentity is space's name, "@" and the first 8 bytes of a SHA-256 over
// what spec compiled to: node names, op labels, head width, loss, metric,
// batch size and early-stop threshold.
func specIdentity(spec *search.Spec, space *search.Space) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %s %s %d %g\n", spec.OutputUnits, space.Loss.Name(), space.Metric.Name(), space.BatchSize, space.EarlyStopDelta)
	for _, n := range space.Nodes {
		fmt.Fprintf(h, "%q", n.Name)
		for _, op := range n.Ops {
			fmt.Fprintf(h, " %q", op.Label)
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%s@%x", space.Name, h.Sum(nil)[:8])
}

// admitSpec checks that dataset ds (application name) can train the space
// compiled from spec: one input, of the spec's shape, and a head the loss
// can score every label with — a logit per class under "ce", one output
// under "mae".
func admitSpec(spec *search.Spec, space *search.Space, ds *data.Dataset, name string) error {
	if len(ds.InputShapes) != 1 {
		return fmt.Errorf("swtnas: custom spaces need a single-input dataset; %q has %d inputs", name, len(ds.InputShapes))
	}
	if !slices.Equal(space.InputShapes[0], ds.InputShapes[0]) {
		return fmt.Errorf("swtnas: space input %v does not match dataset %q input %v",
			space.InputShapes[0], name, ds.InputShapes[0])
	}
	if spec.Loss == "mae" && spec.OutputUnits != 1 {
		return fmt.Errorf("apps: space %q has output_units %d; loss \"mae\" scores one output against dataset %q's label (%d classes), so it needs 1",
			spec.Name, spec.OutputUnits, name, ds.NumClasses)
	}
	if spec.Loss != "mae" && spec.OutputUnits < ds.NumClasses {
		return fmt.Errorf("apps: space %q has output_units %d; loss \"ce\" needs a logit for each of dataset %q's %d classes",
			spec.Name, spec.OutputUnits, name, ds.NumClasses)
	}
	return nil
}

// convChoices enumerates Conv2D ops over filters × padding × L2, the
// CIFAR-10 "Convolution" variable node of the paper (kernel fixed at 3×3,
// L2 weight decay 0.0005 as in Section VII-A).
func convChoices(filters []int) []search.Op {
	var ops []search.Op
	for _, f := range filters {
		for _, pad := range []nn.Padding{nn.Valid, nn.Same} {
			for _, l2 := range []float64{0, 0.0005} {
				ops = append(ops, search.OpConv2D(f, 3, pad, l2))
			}
		}
	}
	return ops
}

// poolChoices2D is identity + sizes × strides, the "Pooling" variable node.
func poolChoices2D(sizes, strides []int) []search.Op {
	ops := []search.Op{search.OpIdentity()}
	for _, s := range sizes {
		for _, st := range strides {
			ops = append(ops, search.OpPool2D(s, st))
		}
	}
	return ops
}

// skipOr is the choice list "identity, then one op per value": the dense,
// pooling and dropout variable nodes of MNIST and NT3.
func skipOr[V any](values []V, op func(V) search.Op) []search.Op {
	ops := []search.Op{search.OpIdentity()}
	for _, v := range values {
		ops = append(ops, op(v))
	}
	return ops
}

func actChoices() []search.Op {
	return []search.Op{
		search.OpActivation(nn.ReLU),
		search.OpActivation(nn.Tanh),
		search.OpActivation(nn.Sigmoid),
	}
}

// cifar10Space builds the VGG-inspired space: 3 blocks of
// (Conv, Pool, BatchNorm) × 2, then 3 Dense variable nodes — 21 VNs total.
func cifar10Space(ds *data.Dataset) *search.Space {
	var nodes []*search.VariableNode
	for blk := 0; blk < 3; blk++ {
		for rep := 0; rep < 2; rep++ {
			prefix := fmt.Sprintf("block%d/%d", blk, rep)
			nodes = append(nodes,
				&search.VariableNode{Name: prefix + "/conv", Ops: convChoices([]int{4, 8, 16})},
				&search.VariableNode{Name: prefix + "/pool", Ops: poolChoices2D([]int{2, 3}, []int{2, 3})},
				&search.VariableNode{Name: prefix + "/bn", Ops: []search.Op{search.OpIdentity(), search.OpBatchNorm()}},
			)
		}
	}
	for i := 0; i < 3; i++ {
		nodes = append(nodes, &search.VariableNode{
			Name: fmt.Sprintf("dense%d", i),
			Ops: []search.Op{
				search.OpIdentity(),
				search.OpDenseAct(32, nn.ReLU),
				search.OpDenseAct(64, nn.ReLU),
				search.OpDenseAct(128, nn.ReLU),
				search.OpDenseAct(256, nn.ReLU),
			},
		})
	}
	return &search.Space{
		Name:        "cifar10",
		Nodes:       nodes,
		InputShapes: ds.InputShapes,
		Loss:        nn.SoftmaxCrossEntropy{},
		Metric:      nn.Accuracy{},
		BatchSize:   64,
		// Paper Section VIII-B: CIFAR-10 threshold 0.01.
		EarlyStopDelta: 0.01,
		Assemble:       search.Sequential(ds.NumClasses),
	}
}

// mnistSpace builds the LeNet-inspired space with 11 VNs in the paper's
// order: Conv, Act, Pool, Conv, Act, Pool, Dense, Act, Dense, Act, Dropout.
func mnistSpace(ds *data.Dataset) *search.Space {
	convOps := func() []search.Op {
		var ops []search.Op
		for _, f := range []int{4, 8, 16} {
			for _, k := range []int{3, 5} {
				for _, pad := range []nn.Padding{nn.Valid, nn.Same} {
					ops = append(ops, search.OpConv2D(f, k, pad, 0))
				}
			}
		}
		return ops
	}
	poolOps := skipOr([]int{2, 3, 4, 5}, func(s int) search.Op { return search.OpPool2D(s, s) })
	denseOps := skipOr([]int{32, 64, 128, 256, 512}, search.OpDense)
	nodes := []*search.VariableNode{
		{Name: "conv0", Ops: convOps()},
		{Name: "act0", Ops: actChoices()},
		{Name: "pool0", Ops: poolOps},
		{Name: "conv1", Ops: convOps()},
		{Name: "act1", Ops: actChoices()},
		{Name: "pool1", Ops: poolOps},
		{Name: "dense0", Ops: denseOps},
		{Name: "act2", Ops: actChoices()},
		{Name: "dense1", Ops: denseOps},
		{Name: "act3", Ops: actChoices()},
		{Name: "dropout", Ops: skipOr([]float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}, search.OpDropout)},
	}
	return &search.Space{
		Name:        "mnist",
		Nodes:       nodes,
		InputShapes: ds.InputShapes,
		Loss:        nn.SoftmaxCrossEntropy{},
		Metric:      nn.Accuracy{},
		BatchSize:   64,
		// Paper Section VIII-B: MNIST threshold 0.001.
		EarlyStopDelta: 0.001,
		Assemble:       search.Sequential(ds.NumClasses),
	}
}

// nt3Space builds the 1-D convolutional space for the gene-expression task
// with the paper's 8 VNs: Conv1D, Act, Pool1D, Dense, Act, Dropout, Dense,
// Dropout.
func nt3Space(ds *data.Dataset) *search.Space {
	convOps := func() []search.Op {
		var ops []search.Op
		for _, f := range []int{4, 8, 16} {
			for _, k := range []int{3, 5, 7} {
				ops = append(ops, search.OpConv1D(f, k, nn.Valid, 0))
			}
		}
		return ops
	}
	poolOps := skipOr([]int{2, 3, 4, 5}, func(s int) search.Op { return search.OpPool1D(s, s) })
	denseOps := skipOr([]int{16, 32, 64, 128, 256}, search.OpDense)
	nodes := []*search.VariableNode{
		{Name: "conv0", Ops: convOps()},
		{Name: "act0", Ops: actChoices()},
		{Name: "pool0", Ops: poolOps},
		{Name: "dense0", Ops: denseOps},
		{Name: "act1", Ops: actChoices()},
		{Name: "dropout0", Ops: skipOr([]float64{0.1, 0.2, 0.3, 0.4, 0.5}, search.OpDropout)},
		{Name: "dense1", Ops: denseOps},
		{Name: "dropout1", Ops: skipOr([]float64{0.1, 0.2, 0.3, 0.4, 0.5}, search.OpDropout)},
	}
	return &search.Space{
		Name:        "nt3",
		Nodes:       nodes,
		InputShapes: ds.InputShapes,
		Loss:        nn.SoftmaxCrossEntropy{},
		Metric:      nn.Accuracy{},
		BatchSize:   32,
		// Paper Section VIII-B: NT3 threshold 0.005.
		EarlyStopDelta: 0.005,
		Assemble:       search.Sequential(ds.NumClasses),
	}
}

// unoMixedOps is the single choice set shared by every Uno variable node
// (Section VII-A: Identity, dense layers, or dropout layers). The paper
// leans on this sameness to explain Uno's Fig 5 behaviour.
func unoMixedOps() []search.Op {
	return []search.Op{
		search.OpIdentity(),
		search.OpDenseAct(32, nn.ReLU),
		search.OpDenseAct(64, nn.ReLU),
		search.OpDenseAct(128, nn.ReLU),
		search.OpDropout(0.3),
		search.OpDropout(0.4),
		search.OpDropout(0.5),
	}
}

// unoSpace builds the multi-input regression space: three 3-VN towers over
// the first three inputs, concatenated with the fourth input, then a 4-VN
// trunk — 13 VNs.
func unoSpace(ds *data.Dataset) *search.Space {
	var nodes []*search.VariableNode
	for t := 0; t < 3; t++ {
		for i := 0; i < 3; i++ {
			nodes = append(nodes, &search.VariableNode{
				Name: fmt.Sprintf("tower%d/%d", t, i),
				Ops:  unoMixedOps(),
			})
		}
	}
	for i := 0; i < 4; i++ {
		nodes = append(nodes, &search.VariableNode{
			Name: fmt.Sprintf("trunk/%d", i),
			Ops:  unoMixedOps(),
		})
	}
	return &search.Space{
		Name:        "uno",
		Nodes:       nodes,
		InputShapes: ds.InputShapes,
		Loss:        nn.MAE{},
		Metric:      nn.R2{},
		BatchSize:   32,
		// Paper Section VIII-B: Uno threshold 0.02.
		EarlyStopDelta: 0.02,
		Assemble: func(b *search.Builder, arch search.Arch) error {
			towers := make([]nn.InputRef, 3)
			for t := 0; t < 3; t++ {
				ref := nn.GraphInput(t)
				var err error
				for i := 0; i < 3; i++ {
					if ref, err = b.ApplyNode(t*3+i, ref); err != nil {
						return err
					}
				}
				towers[t] = ref
			}
			fourth := nn.GraphInput(3)
			cat, err := b.Add(nn.NewConcat(b.FreshName("concat")), towers[0], towers[1], towers[2], fourth)
			if err != nil {
				return err
			}
			ref := cat
			for i := 0; i < 4; i++ {
				if ref, err = b.ApplyNode(9+i, ref); err != nil {
					return err
				}
			}
			_, err = b.Dense("head", ref, 1)
			return err
		},
	}
}
