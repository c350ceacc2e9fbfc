package core

import (
	"fmt"

	"swtnas/internal/nn"
	"swtnas/internal/tensor"
)

// SourceGroup is one provider layer offered for transfer: its matching
// signature plus every coupled tensor (weights, biases, batch-norm
// statistics). Sources come either from a live network
// (SourcesFromNetwork) or from a decoded checkpoint
// (checkpoint.Model.Sources).
type SourceGroup struct {
	// Layer is the provider layer's name (diagnostics only).
	Layer string
	// Signature is the primary weight shape used for matching.
	Signature []int
	// Tensors are the coupled tensors, primary weight first.
	Tensors []*tensor.Tensor
}

// SourcesFromNetwork snapshots a live network's parameter groups as transfer
// sources. The tensors are shared, not copied; use checkpoint.FromNetwork
// for an isolated snapshot.
func SourcesFromNetwork(net *nn.Network) []SourceGroup {
	groups := net.ParamGroups()
	out := make([]SourceGroup, len(groups))
	for i, g := range groups {
		sg := SourceGroup{Layer: g.Layer, Signature: g.Signature}
		for _, p := range g.Params {
			sg.Tensors = append(sg.Tensors, p.W)
		}
		out[i] = sg
	}
	return out
}

// ShapeSeqOfSources extracts the provider-side shape sequence.
func ShapeSeqOfSources(src []SourceGroup) ShapeSeq {
	seq := make(ShapeSeq, len(src))
	for i, g := range src {
		seq[i] = g.Signature
	}
	return seq
}

// ShapeSeqOfNetwork extracts a receiver network's shape sequence.
func ShapeSeqOfNetwork(net *nn.Network) ShapeSeq {
	groups := net.ParamGroups()
	seq := make(ShapeSeq, len(groups))
	for i, g := range groups {
		seq[i] = g.Signature
	}
	return seq
}

// Stats summarizes one weight transfer.
type Stats struct {
	// Matcher is the matcher name ("LP", "LCS").
	Matcher string
	// ProviderLayers / ReceiverLayers are the shape-sequence lengths.
	ProviderLayers, ReceiverLayers int
	// Matched counts shape-sequence pairs the matcher aligned.
	Matched int
	// Copied counts pairs whose coupled tensors were all shape-compatible
	// and therefore actually transferred.
	Copied int
	// Scalars counts the float64 values copied.
	Scalars int
}

// Transferable reports whether the match was non-empty — the paper's
// "transferable pair" predicate (Section IV-B).
func (s Stats) Transferable() bool { return s.Matched > 0 }

// Transfer copies the weights of every matcher-aligned provider layer into
// the receiver network. Aligned pairs whose coupled tensors disagree in
// count or shape (signature collisions between different layer types) are
// skipped, not failed: the receiver keeps its fresh initialization there,
// exactly as the paper initializes non-matched layers randomly.
func Transfer(m Matcher, src []SourceGroup, receiver *nn.Network) (Stats, error) {
	if m == nil {
		return Stats{}, fmt.Errorf("core: nil matcher")
	}
	dst := receiver.ParamGroups()
	stats := Stats{
		Matcher:        m.Name(),
		ProviderLayers: len(src),
		ReceiverLayers: len(dst),
	}
	recvSeq := make(ShapeSeq, len(dst))
	for i, g := range dst {
		recvSeq[i] = g.Signature
	}
	pairs := m.Match(ShapeSeqOfSources(src), recvSeq)
	prevP, prevR := -1, -1
	for _, pr := range pairs {
		if pr.Provider <= prevP || pr.Receiver <= prevR {
			return stats, fmt.Errorf("core: matcher %s returned non-monotonic pairs", m.Name())
		}
		prevP, prevR = pr.Provider, pr.Receiver
		if pr.Provider >= len(src) || pr.Receiver >= len(dst) {
			return stats, fmt.Errorf("core: matcher %s returned out-of-range pair %+v", m.Name(), pr)
		}
		stats.Matched++
		s, d := src[pr.Provider], dst[pr.Receiver]
		if !tensor.SameShape(s.Signature, d.Signature) {
			return stats, fmt.Errorf("core: matcher %s aligned unequal shapes %s vs %s",
				m.Name(), tensor.ShapeString(s.Signature), tensor.ShapeString(d.Signature))
		}
		if !groupCompatible(s, d) {
			continue
		}
		for i, t := range s.Tensors {
			if err := d.Params[i].W.CopyFrom(t); err != nil {
				return stats, err
			}
			stats.Scalars += t.Numel()
		}
		stats.Copied++
	}
	return stats, nil
}

func groupCompatible(s SourceGroup, d nn.ParamGroup) bool {
	if len(s.Tensors) != len(d.Params) {
		return false
	}
	for i := range s.Tensors {
		if !tensor.SameShape(s.Tensors[i].Shape, d.Params[i].W.Shape) {
			return false
		}
	}
	return true
}

// AllTensorShapes flattens every parameter tensor shape of a network
// (weights, biases, batch-norm statistics) into one sequence. The paper's
// Figure 2 "shareable" predicate counts any identically shaped tensor, so it
// operates on this sequence rather than on the layer signatures the
// matchers use.
func AllTensorShapes(net *nn.Network) ShapeSeq {
	var seq ShapeSeq
	for _, p := range net.Params() {
		seq = append(seq, append([]int(nil), p.W.Shape...))
	}
	return seq
}

// SharesAnyShape reports whether the two sequences have at least one
// identical tensor shape anywhere — the paper's Figure 2 "shareable pair"
// predicate, which ignores ordering.
func SharesAnyShape(a, b ShapeSeq) bool {
	for _, sa := range a {
		for _, sb := range b {
			if tensor.SameShape(sa, sb) {
				return true
			}
		}
	}
	return false
}
