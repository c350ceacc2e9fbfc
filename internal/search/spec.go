package search

import (
	"encoding/json"
	"fmt"
	"io"

	"swtnas/internal/nn"
)

// Spec is a declarative, JSON-loadable search-space definition — the
// equivalent of a DeepHyper "problem" file. It describes a sequential
// single-input space, assembled by Sequential like the built-in CIFAR-10,
// MNIST and NT3 spaces: the variable nodes are applied in order to the
// input, and a fixed dense head produces the output. (Uno's towers are the
// one built-in space that is not sequential.)
type Spec struct {
	// Name labels the space.
	Name string `json:"name"`
	// Input is the per-sample input shape, e.g. [28, 28, 1].
	Input []int `json:"input"`
	// OutputUnits is the width of the fixed dense head (class count for
	// classification, 1 for regression).
	OutputUnits int `json:"output_units"`
	// Loss is "ce" or "mae"; Metric is "acc" or "r2".
	Loss   string `json:"loss"`
	Metric string `json:"metric"`
	// BatchSize and EarlyStopDelta configure training (defaults 32, 0.01).
	BatchSize      int     `json:"batch_size"`
	EarlyStopDelta float64 `json:"early_stop_delta"`
	// Nodes are the variable nodes in order.
	Nodes []NodeSpec `json:"nodes"`
}

// NodeSpec is one variable node of a Spec.
type NodeSpec struct {
	Name string   `json:"name"`
	Ops  []OpSpec `json:"ops"`
}

// OpSpec describes one operation choice.
type OpSpec struct {
	// Type selects the operation: identity, dense, dense_act, act,
	// dropout, conv2d, conv1d, maxpool2d, maxpool1d, avgpool2d,
	// global_avg_pool, batchnorm, res_dense.
	Type string `json:"type"`
	// Units is the dense width (dense, dense_act).
	Units int `json:"units,omitempty"`
	// Act is "relu", "tanh" or "sigmoid" (act, dense_act, res_dense).
	Act string `json:"act,omitempty"`
	// Rate is the dropout rate.
	Rate float64 `json:"rate,omitempty"`
	// Filters / Kernel / Padding / L2 configure convolutions.
	Filters int     `json:"filters,omitempty"`
	Kernel  int     `json:"kernel,omitempty"`
	Padding string  `json:"padding,omitempty"`
	L2      float64 `json:"l2,omitempty"`
	// Size / Stride configure pooling.
	Size   int `json:"size,omitempty"`
	Stride int `json:"stride,omitempty"`
}

// LoadSpec parses a JSON spec.
func LoadSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("search: parsing spec: %w", err)
	}
	return &s, nil
}

func actKind(name string) (nn.ActKind, error) {
	switch name {
	case "relu", "":
		return nn.ReLU, nil
	case "tanh":
		return nn.Tanh, nil
	case "sigmoid":
		return nn.Sigmoid, nil
	}
	return 0, fmt.Errorf("search: unknown activation %q", name)
}

func padding(name string) (nn.Padding, error) {
	switch name {
	case "valid", "":
		return nn.Valid, nil
	case "same":
		return nn.Same, nil
	}
	return 0, fmt.Errorf("search: unknown padding %q", name)
}

// compileOp turns an OpSpec into an Op.
func compileOp(o OpSpec) (Op, error) {
	switch o.Type {
	case "identity":
		return OpIdentity(), nil
	case "dense":
		if o.Units <= 0 {
			return Op{}, fmt.Errorf("search: dense needs positive units")
		}
		return OpDense(o.Units), nil
	case "dense_act":
		if o.Units <= 0 {
			return Op{}, fmt.Errorf("search: dense_act needs positive units")
		}
		k, err := actKind(o.Act)
		if err != nil {
			return Op{}, err
		}
		return OpDenseAct(o.Units, k), nil
	case "act":
		k, err := actKind(o.Act)
		if err != nil {
			return Op{}, err
		}
		return OpActivation(k), nil
	case "dropout":
		if o.Rate <= 0 || o.Rate >= 1 {
			return Op{}, fmt.Errorf("search: dropout rate %v out of (0,1)", o.Rate)
		}
		return OpDropout(o.Rate), nil
	case "conv2d":
		if o.Filters <= 0 || o.Kernel <= 0 {
			return Op{}, fmt.Errorf("search: conv2d needs positive filters and kernel")
		}
		p, err := padding(o.Padding)
		if err != nil {
			return Op{}, err
		}
		return OpConv2D(o.Filters, o.Kernel, p, o.L2), nil
	case "conv1d":
		if o.Filters <= 0 || o.Kernel <= 0 {
			return Op{}, fmt.Errorf("search: conv1d needs positive filters and kernel")
		}
		p, err := padding(o.Padding)
		if err != nil {
			return Op{}, err
		}
		return OpConv1D(o.Filters, o.Kernel, p, o.L2), nil
	case "maxpool2d":
		if o.Size <= 0 {
			return Op{}, fmt.Errorf("search: maxpool2d needs positive size")
		}
		return OpPool2D(o.Size, strideOrSize(o)), nil
	case "maxpool1d":
		if o.Size <= 0 {
			return Op{}, fmt.Errorf("search: maxpool1d needs positive size")
		}
		return OpPool1D(o.Size, strideOrSize(o)), nil
	case "avgpool2d":
		if o.Size <= 0 {
			return Op{}, fmt.Errorf("search: avgpool2d needs positive size")
		}
		return OpAvgPool2D(o.Size, strideOrSize(o)), nil
	case "global_avg_pool":
		return OpGlobalAvgPool(), nil
	case "batchnorm":
		return OpBatchNorm(), nil
	case "res_dense":
		k, err := actKind(o.Act)
		if err != nil {
			return Op{}, err
		}
		return OpResidualDense(k), nil
	}
	return Op{}, fmt.Errorf("search: unknown op type %q", o.Type)
}

func strideOrSize(o OpSpec) int {
	if o.Stride > 0 {
		return o.Stride
	}
	return o.Size
}

// Compile materializes the spec into a Space.
func (s *Spec) Compile() (*Space, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("search: spec needs a name")
	}
	if len(s.Input) == 0 {
		return nil, fmt.Errorf("search: spec needs an input shape")
	}
	if s.OutputUnits <= 0 {
		return nil, fmt.Errorf("search: spec needs positive output_units")
	}
	if len(s.Nodes) == 0 {
		return nil, fmt.Errorf("search: spec needs at least one node")
	}
	var loss nn.Loss
	switch s.Loss {
	case "ce", "":
		loss = nn.SoftmaxCrossEntropy{}
	case "mae":
		loss = nn.MAE{}
	default:
		return nil, fmt.Errorf("search: unknown loss %q", s.Loss)
	}
	var metric nn.Metric
	switch s.Metric {
	case "acc", "":
		metric = nn.Accuracy{}
	case "r2":
		metric = nn.R2{}
	default:
		return nil, fmt.Errorf("search: unknown metric %q", s.Metric)
	}
	batch := s.BatchSize
	if batch <= 0 {
		batch = 32
	}
	delta := s.EarlyStopDelta
	if delta <= 0 {
		delta = 0.01
	}
	nodes := make([]*VariableNode, len(s.Nodes))
	for i, ns := range s.Nodes {
		if len(ns.Ops) == 0 {
			return nil, fmt.Errorf("search: node %q has no ops", ns.Name)
		}
		vn := &VariableNode{Name: ns.Name}
		if vn.Name == "" {
			vn.Name = fmt.Sprintf("node%d", i)
		}
		for _, os := range ns.Ops {
			op, err := compileOp(os)
			if err != nil {
				return nil, fmt.Errorf("search: node %q: %w", vn.Name, err)
			}
			vn.Ops = append(vn.Ops, op)
		}
		nodes[i] = vn
	}
	return &Space{
		Name:           s.Name,
		Nodes:          nodes,
		InputShapes:    [][]int{append([]int(nil), s.Input...)},
		Assemble:       Sequential(s.OutputUnits),
		Loss:           loss,
		Metric:         metric,
		BatchSize:      batch,
		EarlyStopDelta: delta,
	}, nil
}
