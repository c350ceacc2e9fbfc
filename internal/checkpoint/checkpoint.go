// Package checkpoint implements the model-checkpoint subsystem the paper's
// weight transfer relies on (Sections VI and VIII-E): evaluators persist
// every scored candidate, and later candidates read their provider's
// checkpoint back to warm-start training.
//
// The paper stores one HDF5 file per candidate on a parallel file system; this
// package stores one object per candidate: its "SWTC" stream, a
// self-describing binary tensor archive (one dtype-tagged format for float64
// and float32 models alike), content-addressed by the stream's hash, so
// checkpoint sizes (Fig 11) and load/store overheads (Fig 10) are measurable.
// There is one store, CASStore, with two backends: memory (NewCASMemStore —
// a search's default, the coordinator's store and a worker's per-task store;
// it keeps the encoded bytes as they are, which is what the distributed path
// ships) and disk (NewCASDiskStore — the durable store a journaled search
// needs: a compressed object file plus a small "SWTM" manifest file per
// candidate). DESIGN.md §10 is the contract.
package checkpoint

import (
	"fmt"

	"swtnas/internal/core"
	"swtnas/internal/nn"
	"swtnas/internal/tensor"
)

// Tensor is one named tensor inside a checkpoint.
type Tensor struct {
	Name  string
	Shape []int
	Data  []float64
}

// Group is the checkpointed form of one layer's parameter group.
type Group struct {
	// Layer is the layer name.
	Layer string
	// Signature is the matching shape (primary weight shape).
	Signature []int
	// Tensors are the coupled tensors, primary weight first.
	Tensors []Tensor
}

// Model is a complete candidate checkpoint: identity, score, and weights.
type Model struct {
	// Arch is the candidate's architecture sequence.
	Arch []int
	// Score is the estimated objective metric at checkpoint time.
	Score float64
	// DType records the element type the candidate was trained in. The
	// in-memory representation stays float64 either way (float32 → float64 is
	// exact, so an f32-trained model round-trips losslessly through the f64
	// transfer path), but the tag routes encoding: tensor.F32 models are
	// stored natively at 4 bytes per element instead of being cast. The zero value is tensor.F64. See DESIGN.md §14.
	DType tensor.DType
	// Groups hold the weights in shape-sequence order.
	Groups []Group
}

// FromNetwork snapshots a trained float64 network into an isolated
// checkpoint (tensor data is copied).
func FromNetwork(arch []int, score float64, net *nn.Network) *Model {
	return FromNetworkOf(arch, score, net)
}

// FromNetworkOf snapshots a trained network of any element type into an
// isolated checkpoint. Data is widened to float64 (exact for float32
// inputs) and the model is tagged with the network's dtype so stores encode
// it at the native width.
func FromNetworkOf[T tensor.Float](arch []int, score float64, net *nn.NetworkOf[T]) *Model {
	m := &Model{Arch: append([]int(nil), arch...), Score: score, DType: tensor.DTypeFor[T]()}
	for _, g := range net.ParamGroups() {
		cg := Group{Layer: g.Layer, Signature: append([]int(nil), g.Signature...)}
		for _, p := range g.Params {
			data := make([]float64, len(p.W.Data))
			for i, v := range p.W.Data {
				data[i] = float64(v)
			}
			cg.Tensors = append(cg.Tensors, Tensor{
				Name:  p.Name,
				Shape: append([]int(nil), p.W.Shape...),
				Data:  data,
			})
		}
		m.Groups = append(m.Groups, cg)
	}
	return m
}

// Sources converts the checkpoint into transfer sources for core.Transfer.
func (m *Model) Sources() []core.SourceGroup {
	out := make([]core.SourceGroup, len(m.Groups))
	for i, g := range m.Groups {
		sg := core.SourceGroup{Layer: g.Layer, Signature: g.Signature}
		for _, t := range g.Tensors {
			sg.Tensors = append(sg.Tensors, tensor.FromData(t.Data, t.Shape...))
		}
		out[i] = sg
	}
	return out
}

// ShapeSeq returns the checkpointed model's shape sequence.
func (m *Model) ShapeSeq() core.ShapeSeq {
	seq := make(core.ShapeSeq, len(m.Groups))
	for i, g := range m.Groups {
		seq[i] = g.Signature
	}
	return seq
}

// RestoreInto copies every checkpointed tensor back into a freshly built
// float64 network of the *same* architecture, resuming from the checkpoint
// exactly. It fails if any group or tensor disagrees — use core.Transfer for
// cross-architecture initialization.
func (m *Model) RestoreInto(net *nn.Network) error {
	return RestoreIntoOf(m, net)
}

// RestoreIntoOf restores a checkpoint into a network of any element type.
// Values are converted with a plain cast: exact when the destination is
// float64, and exact when the destination is float32 and the checkpoint was
// trained in float32 (m.DType == tensor.F32), since those values are
// f32-representable by construction.
func RestoreIntoOf[T tensor.Float](m *Model, net *nn.NetworkOf[T]) error {
	groups := net.ParamGroups()
	if len(groups) != len(m.Groups) {
		return fmt.Errorf("checkpoint: network has %d groups, checkpoint %d", len(groups), len(m.Groups))
	}
	for i, g := range groups {
		cg := m.Groups[i]
		if len(g.Params) != len(cg.Tensors) {
			return fmt.Errorf("checkpoint: group %q has %d tensors, checkpoint %d", g.Layer, len(g.Params), len(cg.Tensors))
		}
		for j, p := range g.Params {
			if !tensor.SameShape(p.W.Shape, cg.Tensors[j].Shape) {
				return fmt.Errorf("checkpoint: tensor %q shape %s != checkpoint %s",
					p.Name, tensor.ShapeString(p.W.Shape), tensor.ShapeString(cg.Tensors[j].Shape))
			}
			for i, v := range cg.Tensors[j].Data {
				p.W.Data[i] = T(v)
			}
		}
	}
	return nil
}
