package nn

import (
	"fmt"

	"swtnas/internal/tensor"
)

// Network casting is the dtype boundary of the search stack: candidates are
// always *constructed* in float64 (the search-space operators, the Glorot/He
// init RNG streams, and the weight-transfer engine in internal/core all run
// on float64 networks), and an f32 training run converts the finished
// network exactly once with ConvertNetwork before Fit. The conversion is
// safe in both directions of the pipeline: float64 → float32 rounds fresh
// initialization once, and weights that were already float32-trained (a
// parent checkpoint restored through the f64 transfer path) are
// f32-representable, so the round trip back to float32 reproduces their
// exact bits. See DESIGN.md §14.

// ConvertNetwork rebuilds n with element type To: every layer is re-created
// with its configuration and converted parameter tensors, re-added in
// topological order (which re-runs shape inference), and the output node is
// preserved. Optimizer state, activation caches and step buffers do not
// carry over: the result shares no storage with n — convert before
// training, not mid-fit.
// It fails on layer types outside the closed built-in set.
func ConvertNetwork[To tensor.Float](n *Network) (*NetworkOf[To], error) {
	out := NewNetworkOf[To](n.inputShapes...)
	for _, nd := range n.nodes {
		cl, err := convertLayer[To](nd.layer)
		if err != nil {
			return nil, err
		}
		if _, err := out.Add(cl, nd.inputs...); err != nil {
			return nil, fmt.Errorf("nn: convert %q: %w", nd.layer.Name(), err)
		}
	}
	if n.output >= 0 {
		if err := out.SetOutput(InputRef(n.output)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// convertParam converts one parameter tensor, preserving trainability and
// the L2 coefficient.
func convertParam[To tensor.Float](p *Param) *ParamOf[To] {
	if p == nil {
		return nil
	}
	c := &ParamOf[To]{Name: p.Name, W: tensor.Convert[To](p.W), L2: p.L2}
	if p.Grad != nil {
		c.Grad = tensor.NewOf[To](p.Grad.Shape...)
	}
	return c
}

// convertLayer maps one float64 layer to its To-typed twin. The type switch
// is closed over the built-in layer set — every operator the search spaces
// can emit — so a new layer type must be added here to be f32-trainable
// (TestConvertNetworkCoversAllLayers pins that).
func convertLayer[To tensor.Float](l Layer) (LayerOf[To], error) {
	switch v := l.(type) {
	case *DenseOf[float64]:
		return &DenseOf[To]{name: v.name, In: v.In, Out: v.Out,
			W: convertParam[To](v.W), B: convertParam[To](v.B)}, nil
	case *IdentityOf[float64]:
		return &IdentityOf[To]{name: v.name}, nil
	case *FlattenOf[float64]:
		return &FlattenOf[To]{name: v.name}, nil
	case *ConcatOf[float64]:
		return &ConcatOf[To]{name: v.name}, nil
	case *ActivationOf[float64]:
		return &ActivationOf[To]{name: v.name, Kind: v.Kind}, nil
	case *DropoutOf[float64]:
		// The mask RNG object (and its Stream) is shared: the f64 network is
		// discarded after conversion, so the stream has a single consumer
		// either way.
		return &DropoutOf[To]{name: v.name, Rate: v.Rate, rng: v.rng, stream: v.stream}, nil
	case *Conv2DOf[float64]:
		return convertConv2D[To](v), nil
	case *Conv1DOf[float64]:
		return &Conv1DOf[To]{*convertConv2D[To](&v.Conv2DOf)}, nil
	case *BatchNormOf[float64]:
		return &BatchNormOf[To]{name: v.name, C: v.C, Momentum: v.Momentum, Eps: v.Eps,
			Gamma: convertParam[To](v.Gamma), Beta: convertParam[To](v.Beta),
			RunMean: convertParam[To](v.RunMean), RunVar: convertParam[To](v.RunVar),
			seen: v.seen}, nil
	case *MaxPool2DOf[float64]:
		return &MaxPool2DOf[To]{window: v.window}, nil
	case *MaxPool1DOf[float64]:
		return &MaxPool1DOf[To]{MaxPool2DOf[To]{window: v.window}}, nil
	case *AvgPool2DOf[float64]:
		return &AvgPool2DOf[To]{window: v.window}, nil
	case *GlobalAvgPoolOf[float64]:
		return &GlobalAvgPoolOf[To]{name: v.name}, nil
	case *AddOf[float64]:
		return &AddOf[To]{name: v.name}, nil
	}
	return nil, fmt.Errorf("nn: cannot convert layer %q of type %T", l.Name(), l)
}

// convertConv2D converts a convolution's configuration and parameters.
func convertConv2D[To tensor.Float](v *Conv2D) *Conv2DOf[To] {
	return &Conv2DOf[To]{name: v.name, KH: v.KH, KW: v.KW, InC: v.InC, OutC: v.OutC,
		Pad: v.Pad, W: convertParam[To](v.W), B: convertParam[To](v.B)}
}

// ConvertLoss maps a float64 loss to its To-typed twin (closed set).
func ConvertLoss[To tensor.Float](l Loss) (LossOf[To], error) {
	switch l.(type) {
	case SoftmaxCrossEntropyOf[float64]:
		return SoftmaxCrossEntropyOf[To]{}, nil
	case MAEOf[float64]:
		return MAEOf[To]{}, nil
	}
	return nil, fmt.Errorf("nn: cannot convert loss %T", l)
}

// ConvertMetric maps a float64 metric to its To-typed twin (closed set).
func ConvertMetric[To tensor.Float](m Metric) (MetricOf[To], error) {
	switch m.(type) {
	case AccuracyOf[float64]:
		return AccuracyOf[To]{}, nil
	case R2Of[float64]:
		return R2Of[To]{}, nil
	}
	return nil, fmt.Errorf("nn: cannot convert metric %T", m)
}

// ConvertData converts a dataset split's input tensors to To. Targets are
// always float64 (class indices / regression values) and are shared, not
// copied. data.Dataset.F32 converts each dataset once and every candidate
// reuses the result, so the conversion never sits on a per-candidate hot
// path.
func ConvertData[To tensor.Float](d *Data) *DataOf[To] {
	out := &DataOf[To]{Targets: d.Targets}
	for _, in := range d.Inputs {
		out.Inputs = append(out.Inputs, tensor.Convert[To](in))
	}
	return out
}
