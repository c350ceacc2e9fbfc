package core

import (
	"math/rand"
	"testing"

	"swtnas/internal/nn"
	"swtnas/internal/tensor"
)

// mlp builds input(4) -> Dense(4,h) -> relu -> Dense(h,2).
func mlp(h int, seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork([]int{4})
	net.MustAdd(nn.NewDense("d1", 4, h, 0, rng), nn.GraphInput(0))
	net.MustAdd(nn.NewActivation("a", nn.ReLU), 0)
	net.MustAdd(nn.NewDense("d2", h, 2, 0, rng), 1)
	return net
}

func TestTransferIdenticalArchCopiesEverything(t *testing.T) {
	provider := mlp(8, 1)
	receiver := mlp(8, 2)
	stats, err := Transfer(LCS{}, SourcesFromNetwork(provider), receiver)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matched != 2 || stats.Copied != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	wantScalars := (4*8 + 8) + (8*2 + 2)
	if stats.Scalars != wantScalars {
		t.Fatalf("scalars = %d, want %d", stats.Scalars, wantScalars)
	}
	pg, rg := provider.ParamGroups(), receiver.ParamGroups()
	for i := range pg {
		for j := range pg[i].Params {
			for k, v := range pg[i].Params[j].W.Data {
				if rg[i].Params[j].W.Data[k] != v {
					t.Fatalf("group %d tensor %d not copied", i, j)
				}
			}
		}
	}
}

func TestTransferPartialOverlapLP(t *testing.T) {
	// Provider ends with Dense(8,2); receiver has a wider hidden layer, so
	// only the first dense matches nothing (different shapes) — build a
	// case where only the prefix matches.
	provider := mlp(8, 3)
	rng := rand.New(rand.NewSource(4))
	receiver := nn.NewNetwork([]int{4})
	receiver.MustAdd(nn.NewDense("d1", 4, 8, 0, rng), nn.GraphInput(0))
	receiver.MustAdd(nn.NewActivation("a", nn.ReLU), 0)
	receiver.MustAdd(nn.NewDense("mid", 8, 16, 0, rng), 1)
	receiver.MustAdd(nn.NewDense("d2", 16, 2, 0, rng), 2)

	before := receiver.ParamGroups()[1].Params[0].W.Clone()
	stats, err := Transfer(LP{}, SourcesFromNetwork(provider), receiver)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matched != 1 || stats.Copied != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// First dense copied.
	pd1 := provider.ParamGroups()[0].Params[0].W
	rd1 := receiver.ParamGroups()[0].Params[0].W
	for i := range pd1.Data {
		if rd1.Data[i] != pd1.Data[i] {
			t.Fatal("prefix layer not copied")
		}
	}
	// Later layers untouched.
	after := receiver.ParamGroups()[1].Params[0].W
	for i := range before.Data {
		if after.Data[i] != before.Data[i] {
			t.Fatal("non-matched layer was modified")
		}
	}
}

func TestTransferLCSSkipsInsertedLayer(t *testing.T) {
	// Provider: Dense(4,8), Dense(8,2). Receiver: Dense(4,8), Dense(8,8),
	// Dense(8,2). LCS must transfer first and last; LP only first.
	build := func(withMid bool, seed int64) *nn.Network {
		rng := rand.New(rand.NewSource(seed))
		net := nn.NewNetwork([]int{4})
		ref := net.MustAdd(nn.NewDense("d1", 4, 8, 0, rng), nn.GraphInput(0))
		if withMid {
			ref = net.MustAdd(nn.NewDense("mid", 8, 8, 0, rng), ref)
		}
		net.MustAdd(nn.NewDense("d2", 8, 2, 0, rng), ref)
		return net
	}
	provider := build(false, 1)

	recvLCS := build(true, 2)
	stats, err := Transfer(LCS{}, SourcesFromNetwork(provider), recvLCS)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied != 2 {
		t.Fatalf("LCS copied %d, want 2", stats.Copied)
	}
	// Last dense copied from provider's last dense.
	pLast := provider.ParamGroups()[1].Params[0].W
	rLast := recvLCS.ParamGroups()[2].Params[0].W
	for i := range pLast.Data {
		if rLast.Data[i] != pLast.Data[i] {
			t.Fatal("LCS did not transfer the trailing layer")
		}
	}

	recvLP := build(true, 3)
	stats, err = Transfer(LP{}, SourcesFromNetwork(provider), recvLP)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied != 1 {
		t.Fatalf("LP copied %d, want 1", stats.Copied)
	}
}

func TestTransferNilMatcher(t *testing.T) {
	if _, err := Transfer(nil, nil, mlp(4, 1)); err == nil {
		t.Fatal("nil matcher must error")
	}
}

func TestTransferStatsTransferable(t *testing.T) {
	if (Stats{Matched: 0}).Transferable() {
		t.Fatal("no matches must not be transferable")
	}
	if !(Stats{Matched: 1}).Transferable() {
		t.Fatal("one match must be transferable")
	}
}

func TestGroupIncompatibleSkipped(t *testing.T) {
	// A source whose signature matches but whose coupled tensors disagree
	// must be skipped, leaving the receiver's weights intact.
	receiver := mlp(8, 5)
	src := SourcesFromNetwork(mlp(8, 6))
	// Corrupt coupling of the first group: drop the bias tensor.
	src[0].Tensors = src[0].Tensors[:1]
	before := receiver.ParamGroups()[0].Params[0].W.Clone()
	stats, err := Transfer(LCS{}, src, receiver)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matched != 2 || stats.Copied != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	after := receiver.ParamGroups()[0].Params[0].W
	for i := range before.Data {
		if after.Data[i] != before.Data[i] {
			t.Fatal("incompatible group was partially copied")
		}
	}
}

func TestShapeSeqOfNetwork(t *testing.T) {
	net := mlp(8, 7)
	seq := ShapeSeqOfNetwork(net)
	if len(seq) != 2 {
		t.Fatalf("seq = %v", seq)
	}
	if !tensor.SameShape(seq[0], []int{4, 8}) || !tensor.SameShape(seq[1], []int{8, 2}) {
		t.Fatalf("seq = %v", seq)
	}
	src := SourcesFromNetwork(net)
	seq2 := ShapeSeqOfSources(src)
	for i := range seq {
		if !tensor.SameShape(seq[i], seq2[i]) {
			t.Fatal("source and network sequences disagree")
		}
	}
}

// TestTransferEquivalentToResume is the paper's Section III thought
// experiment: for identical architectures, initializing from the provider's
// checkpoint is exactly resuming the provider.
func TestTransferEquivalentToResume(t *testing.T) {
	provider := mlp(8, 8)
	// Perturb provider weights to mimic training.
	rng := rand.New(rand.NewSource(9))
	for _, p := range provider.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += rng.NormFloat64() * 0.1
		}
	}
	receiver := mlp(8, 10)
	if _, err := Transfer(LCS{}, SourcesFromNetwork(provider), receiver); err != nil {
		t.Fatal(err)
	}
	in := tensor.New(3, 4)
	in.RandNormal(rng, 1)
	po, err := provider.Forward([]*tensor.Tensor{in}, false)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := receiver.Forward([]*tensor.Tensor{in}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range po.Data {
		if po.Data[i] != ro.Data[i] {
			t.Fatal("receiver does not reproduce provider outputs")
		}
	}
}
