package oneshot

import (
	"math/rand"
	"sync"
	"testing"

	"swtnas/internal/nn"
	"swtnas/internal/tensor"
)

func mlp(h int, seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork([]int{4})
	net.MustAdd(nn.NewDense("d1", 4, h, 0, rng), nn.GraphInput(0))
	net.MustAdd(nn.NewActivation("a", nn.ReLU), 0)
	net.MustAdd(nn.NewDense("d2", h, 2, 0, rng), 1)
	return net
}

func TestPullOnEmptyPoolIsNoop(t *testing.T) {
	s := New()
	net := mlp(8, 1)
	before := net.Params()[0].W.Clone()
	if hit := s.Pull(net); hit != 0 {
		t.Fatalf("hits on empty pool = %d", hit)
	}
	after := net.Params()[0].W
	for i := range before.Data {
		if after.Data[i] != before.Data[i] {
			t.Fatal("empty pull must not modify weights")
		}
	}
}

func TestPushThenPullShares(t *testing.T) {
	s := New()
	a := mlp(8, 1)
	s.Push(a)
	if s.Entries() != 2 {
		t.Fatalf("entries = %d, want 2 dense groups", s.Entries())
	}
	b := mlp(8, 2) // different init, same architecture
	if hit := s.Pull(b); hit != 2 {
		t.Fatalf("hits = %d, want 2", hit)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatal("pull did not copy shared weights")
			}
		}
	}
}

func TestDifferentWidthsDoNotShare(t *testing.T) {
	s := New()
	s.Push(mlp(8, 1))
	wide := mlp(16, 2)
	if hit := s.Pull(wide); hit != 0 {
		t.Fatalf("hits = %d; differently shaped layers must not share", hit)
	}
	if s.Push(wide); s.Entries() != 4 {
		t.Fatalf("entries = %d, want 4 (two architectures x two groups)", s.Entries())
	}
}

func TestPushUpdatesInPlace(t *testing.T) {
	s := New()
	a := mlp(8, 1)
	s.Push(a)
	a.Params()[0].W.Fill(42)
	s.Push(a)
	b := mlp(8, 2)
	s.Pull(b)
	if b.Params()[0].W.Data[0] != 42 {
		t.Fatal("second push did not update the pool")
	}
	if s.Entries() != 2 {
		t.Fatalf("entries grew on update: %d", s.Entries())
	}
}

func TestPoolIsolatedFromNetwork(t *testing.T) {
	s := New()
	a := mlp(8, 1)
	s.Push(a)
	a.Params()[0].W.Fill(-1) // mutate after push
	b := mlp(8, 2)
	s.Pull(b)
	if b.Params()[0].W.Data[0] == -1 {
		t.Fatal("pool shares storage with the pushed network")
	}
}

func TestBytesAccounting(t *testing.T) {
	s := New()
	s.Push(mlp(8, 1))
	want := int64((4*8+8)+(8*2+2)) * 8
	if got := s.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

func TestConcurrentPullPush(t *testing.T) {
	s := New()
	s.Push(mlp(8, 1))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			net := mlp(8, int64(w))
			for i := 0; i < 20; i++ {
				s.Pull(net)
				s.Push(net)
			}
		}(w)
	}
	wg.Wait()
}

func TestSharedTrainingMovesBothCandidates(t *testing.T) {
	// One-shot semantics: training candidate A must influence candidate
	// B's shared layers on the next pull.
	s := New()
	a := mlp(8, 1)
	s.Push(a)
	// Simulate "training": perturb and push back.
	for _, p := range a.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += 0.5
		}
	}
	s.Push(a)
	b := mlp(8, 9)
	s.Pull(b)
	in := tensor.New(1, 4)
	in.Fill(1)
	oa, _ := a.Forward([]*tensor.Tensor{in}, false)
	ob, _ := b.Forward([]*tensor.Tensor{in}, false)
	for i := range oa.Data {
		if oa.Data[i] != ob.Data[i] {
			t.Fatal("candidates do not share the trained weights")
		}
	}
}

// TestSubNetworksTrainInTurn: two sub-networks that share every layer through
// the pool, stepped alternately, trace exactly what one network stepped on
// the same batches traces — each keeps its own step buffers, and nothing of
// one's pass survives into the other's.
func TestSubNetworksTrainInTurn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(6, 4)
	x.RandNormal(rng, 1)
	data := &nn.Data{Inputs: []*tensor.Tensor{x}, Targets: []float64{0, 1, 1, 0, 1, 0}}
	step := func(net *nn.Network) {
		if _, err := nn.Fit(net, nn.SoftmaxCrossEntropy{}, nn.Accuracy{}, nn.NewAdam(), data, data,
			nn.FitConfig{Epochs: 1, BatchSize: 4}); err != nil {
			t.Fatal(err)
		}
	}
	s := New()
	a, b, solo := mlp(8, 1), mlp(8, 2), mlp(8, 1)
	s.Push(a)
	for i := 0; i < 4; i++ {
		sub := a
		if i%2 == 1 {
			sub = b
		}
		s.Pull(sub)
		step(sub)
		s.Push(sub)
		step(solo)
	}
	s.Pull(a)
	for i, p := range a.Params() {
		want := solo.Params()[i].W.Data
		for j, v := range p.W.Data {
			if v != want[j] {
				t.Fatalf("param %d elem %d: %v through two sub-networks in turn, %v through one network", i, j, v, want[j])
			}
		}
	}
}
