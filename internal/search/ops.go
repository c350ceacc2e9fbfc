package search

import (
	"fmt"

	"swtnas/internal/nn"
)

// OpIdentity is the skip choice offered by many variable nodes.
func OpIdentity() Op {
	return Op{
		Label: "Identity",
		Apply: func(b *Builder, ref nn.InputRef) (nn.InputRef, error) {
			return b.Add(nn.NewIdentity(b.FreshName("identity")), ref)
		},
	}
}

// OpDense adds a dense layer with the given width; the input is flattened
// implicitly if needed.
func OpDense(units int) Op {
	return Op{
		Label: fmt.Sprintf("Dense(%d)", units),
		Apply: func(b *Builder, ref nn.InputRef) (nn.InputRef, error) {
			flat, err := b.Flat(ref)
			if err != nil {
				return 0, err
			}
			return b.Dense(b.FreshName("dense"), flat, units)
		},
	}
}

// OpDenseAct adds a dense layer immediately followed by an activation,
// the combined "Dense(50, relu)" style choice of the paper's Figure 1.
func OpDenseAct(units int, act nn.ActKind) Op {
	return Op{
		Label: fmt.Sprintf("Dense(%d, %s)", units, act),
		Apply: func(b *Builder, ref nn.InputRef) (nn.InputRef, error) {
			flat, err := b.Flat(ref)
			if err != nil {
				return 0, err
			}
			d, err := b.Dense(b.FreshName("dense"), flat, units)
			if err != nil {
				return 0, err
			}
			return b.Add(nn.NewActivation(b.FreshName("act"), act), d)
		},
	}
}

// OpActivation adds an activation choice.
func OpActivation(kind nn.ActKind) Op {
	return Op{
		Label: kind.String(),
		Apply: func(b *Builder, ref nn.InputRef) (nn.InputRef, error) {
			return b.Add(nn.NewActivation(b.FreshName("act"), kind), ref)
		},
	}
}

// OpDropout adds a dropout choice with the given rate.
func OpDropout(rate float64) Op {
	return Op{
		Label: fmt.Sprintf("Dropout(%g)", rate),
		Apply: func(b *Builder, ref nn.InputRef) (nn.InputRef, error) {
			return b.Add(nn.NewDropout(b.FreshName("dropout"), rate, b.RNG), ref)
		},
	}
}

// OpConv2D adds a 2-D convolution choice; the input channel count is
// inferred from the frontier shape.
func OpConv2D(filters, kernel int, pad nn.Padding, l2 float64) Op {
	label := fmt.Sprintf("Conv2D(%d, %dx%d, %s", filters, kernel, kernel, pad)
	if l2 > 0 {
		label += fmt.Sprintf(", l2=%g", l2)
	}
	label += ")"
	return Op{
		Label: label,
		Apply: func(b *Builder, ref nn.InputRef) (nn.InputRef, error) {
			shape := b.ShapeOf(ref)
			if len(shape) != 3 {
				return 0, fmt.Errorf("conv2d needs (H, W, C) input, got %v", shape)
			}
			// The output shape, inferred before the weights exist; a checked
			// (H, W, C) shape always infers.
			conv := &nn.Conv2D{KH: kernel, KW: kernel, InC: shape[2], OutC: filters, Pad: pad}
			out, _ := conv.OutShape([][]int{shape})
			if err := b.admit(mul(mul(kernel, kernel, shape[2])+1, filters), bordered(conv), mul(out...)); err != nil {
				return 0, err
			}
			if err := b.gradBlock(ref, conv.InputGradBlock()); err != nil {
				return 0, err
			}
			return b.Add(nn.NewConv2D(b.FreshName("conv2d"), kernel, kernel, shape[2], filters, pad, l2, b.RNG), ref)
		},
	}
}

// OpConv1D adds a 1-D convolution choice.
func OpConv1D(filters, kernel int, pad nn.Padding, l2 float64) Op {
	label := fmt.Sprintf("Conv1D(%d, %d, %s", filters, kernel, pad)
	if l2 > 0 {
		label += fmt.Sprintf(", l2=%g", l2)
	}
	label += ")"
	return Op{
		Label: label,
		Apply: func(b *Builder, ref nn.InputRef) (nn.InputRef, error) {
			shape := b.ShapeOf(ref)
			if len(shape) != 2 {
				return 0, fmt.Errorf("conv1d needs (L, C) input, got %v", shape)
			}
			// As in OpConv2D: a checked (L, C) shape always infers.
			conv := &nn.Conv1D{Conv2DOf: nn.Conv2D{KH: 1, KW: kernel, InC: shape[1], OutC: filters, Pad: pad}}
			out, _ := conv.OutShape([][]int{shape})
			if err := b.admit(mul(mul(kernel, shape[1])+1, filters), bordered(&conv.Conv2DOf), mul(out...)); err != nil {
				return 0, err
			}
			if err := b.gradBlock(ref, conv.InputGradBlock()); err != nil {
				return 0, err
			}
			return b.Add(nn.NewConv1D(b.FreshName("conv1d"), kernel, shape[1], filters, pad, l2, b.RNG), ref)
		},
	}
}

// OpPool2D adds a 2-D max-pooling choice.
func OpPool2D(size, stride int) Op {
	return Op{
		Label: fmt.Sprintf("MaxPool2D(%d, s%d)", size, stride),
		Apply: func(b *Builder, ref nn.InputRef) (nn.InputRef, error) {
			return b.Add(nn.NewMaxPool2D(b.FreshName("pool2d"), size, stride), ref)
		},
	}
}

// OpPool1D adds a 1-D max-pooling choice.
func OpPool1D(size, stride int) Op {
	return Op{
		Label: fmt.Sprintf("MaxPool1D(%d, s%d)", size, stride),
		Apply: func(b *Builder, ref nn.InputRef) (nn.InputRef, error) {
			return b.Add(nn.NewMaxPool1D(b.FreshName("pool1d"), size, stride), ref)
		},
	}
}

// OpAvgPool2D adds a 2-D average-pooling choice.
func OpAvgPool2D(size, stride int) Op {
	return Op{
		Label: fmt.Sprintf("AvgPool2D(%d, s%d)", size, stride),
		Apply: func(b *Builder, ref nn.InputRef) (nn.InputRef, error) {
			return b.Add(nn.NewAvgPool2D(b.FreshName("avgpool2d"), size, stride), ref)
		},
	}
}

// OpGlobalAvgPool adds a global-average-pooling choice, collapsing spatial
// dimensions to per-channel means.
func OpGlobalAvgPool() Op {
	return Op{
		Label: "GlobalAvgPool",
		Apply: func(b *Builder, ref nn.InputRef) (nn.InputRef, error) {
			return b.Add(nn.NewGlobalAvgPool(b.FreshName("gap")), ref)
		},
	}
}

// OpResidualDense adds a width-preserving residual block
// (dense → activation → dense, plus skip) on a flat input.
func OpResidualDense(act nn.ActKind) Op {
	return Op{
		Label: fmt.Sprintf("ResDense(%s)", act),
		Apply: func(b *Builder, ref nn.InputRef) (nn.InputRef, error) {
			flat, err := b.Flat(ref)
			if err != nil {
				return 0, err
			}
			w := b.ShapeOf(flat)[0]
			d1, err := b.Dense(b.FreshName("dense"), flat, w)
			if err != nil {
				return 0, err
			}
			a, err := b.Add(nn.NewActivation(b.FreshName("act"), act), d1)
			if err != nil {
				return 0, err
			}
			d2, err := b.Dense(b.FreshName("dense"), a, w)
			if err != nil {
				return 0, err
			}
			return b.Add(nn.NewAdd(b.FreshName("residual")), d2, flat)
		},
	}
}

// OpBatchNorm adds a batch-normalization choice; the channel count is
// inferred from the frontier shape.
func OpBatchNorm() Op {
	return Op{
		Label: "BatchNorm",
		Apply: func(b *Builder, ref nn.InputRef) (nn.InputRef, error) {
			shape := b.ShapeOf(ref)
			if len(shape) == 0 {
				return 0, fmt.Errorf("batchnorm needs a shaped input")
			}
			if err := b.admit(2*shape[len(shape)-1], 0, mul(shape...)); err != nil {
				return 0, err
			}
			return b.Add(nn.NewBatchNorm(b.FreshName("bn"), shape[len(shape)-1]), ref)
		},
	}
}
