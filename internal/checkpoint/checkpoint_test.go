package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"swtnas/internal/core"
	"swtnas/internal/nn"
	"swtnas/internal/tensor"
)

func sampleNet(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewNetwork([]int{4})
	net.MustAdd(nn.NewDense("d1", 4, 6, 0, rng), nn.GraphInput(0))
	net.MustAdd(nn.NewBatchNorm("bn", 6), 0)
	net.MustAdd(nn.NewDense("d2", 6, 2, 0, rng), 1)
	return net
}

func TestFromNetworkSnapshotIsolated(t *testing.T) {
	net := sampleNet(1)
	m := FromNetwork([]int{1, 2, 3}, 0.75, net)
	if len(m.Groups) != 3 {
		t.Fatalf("groups = %d, want 3 (dense, bn, dense)", len(m.Groups))
	}
	if len(m.Groups[1].Tensors) != 4 {
		t.Fatalf("bn group tensors = %d, want 4", len(m.Groups[1].Tensors))
	}
	// Mutating the network must not change the checkpoint.
	orig := m.Groups[0].Tensors[0].Data[0]
	net.Params()[0].W.Data[0] = 999
	if m.Groups[0].Tensors[0].Data[0] != orig {
		t.Fatal("checkpoint shares storage with the network")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := FromNetwork([]int{4, 0, 7}, -0.25, sampleNet(2))
	buf, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != m.Score {
		t.Fatalf("score = %v, want %v", got.Score, m.Score)
	}
	if len(got.Arch) != 3 || got.Arch[2] != 7 {
		t.Fatalf("arch = %v", got.Arch)
	}
	if len(got.Groups) != len(m.Groups) {
		t.Fatalf("groups = %d", len(got.Groups))
	}
	for i, g := range got.Groups {
		if g.Layer != m.Groups[i].Layer {
			t.Fatalf("layer %d = %q", i, g.Layer)
		}
		if !tensor.SameShape(g.Signature, m.Groups[i].Signature) {
			t.Fatalf("signature %d = %v", i, g.Signature)
		}
		for j, tt := range g.Tensors {
			want := m.Groups[i].Tensors[j]
			if tt.Name != want.Name || !tensor.SameShape(tt.Shape, want.Shape) {
				t.Fatalf("tensor %d/%d header mismatch", i, j)
			}
			for k := range tt.Data {
				if tt.Data[k] != want.Data[k] {
					t.Fatalf("tensor %d/%d data mismatch at %d", i, j, k)
				}
			}
		}
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	m := FromNetwork([]int{1}, 0, sampleNet(3))
	good, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOPE"), good[4:]...),
		"truncated": good[:len(good)/2],
		"short":     good[:6],
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: decode must fail", name)
		}
	}
	// Bad version.
	bad := append([]byte(nil), good...)
	bad[4] = 99
	if _, err := Decode(bad); err == nil {
		t.Error("bad version: decode must fail")
	}
	// A one-tensor stream whose shape claims maxElems f64 values: 2^31
	// payload bytes, past int32 on 32-bit platforms.
	one := &Model{Groups: []Group{{Layer: "g", Tensors: []Tensor{{Name: "t", Shape: []int{1}, Data: []float64{0}}}}}}
	huge, err := one.Encode()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(huge[len(huge)-12:], maxElems) // the shape's one dimension
	if _, err := Decode(huge); err == nil {
		t.Error("a payload the stream cannot hold: decode must fail")
	}
	// A name past maxString is refused by the limit even when its bytes are
	// all there.
	one.Groups[0].Layer = strings.Repeat("g", maxString+1)
	long, err := one.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(long); err == nil || !strings.Contains(err.Error(), "implausible string length") {
		t.Errorf("over-long name: err = %v, want the string-length limit", err)
	}
}

// TestDecodeRejectsTrailingBytes: a stream ends with its last group. One
// byte more, or a second stream after the first, is refused by Decode and by
// pack alike — they read the stream with the same walker.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	good, err := FromNetwork([]int{1}, 0, sampleNet(3)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"one byte":      append(append([]byte(nil), good...), 0),
		"second stream": append(append([]byte(nil), good...), good...),
	} {
		want := fmt.Sprintf("%d bytes follow", len(b)-len(good))
		if m, err := Decode(b); err == nil || m != nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Decode = %v, %v; want an error saying %q", name, m, err, want)
		}
		if _, err := pack(b); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: pack err = %v, want one saying %q", name, err, want)
		}
	}
}

func TestSourcesMatchNetworkShapeSeq(t *testing.T) {
	net := sampleNet(4)
	m := FromNetwork([]int{0}, 0, net)
	src := m.Sources()
	want := core.ShapeSeqOfNetwork(net)
	got := core.ShapeSeqOfSources(src)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !tensor.SameShape(got[i], want[i]) {
			t.Fatalf("seq[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if m.ShapeSeq().String() != want.String() {
		t.Fatal("ShapeSeq mismatch")
	}
}

func TestRestoreInto(t *testing.T) {
	orig := sampleNet(5)
	m := FromNetwork([]int{0}, 0, orig)
	fresh := sampleNet(6)
	if err := m.RestoreInto(fresh); err != nil {
		t.Fatal(err)
	}
	in := tensor.New(2, 4)
	in.RandNormal(rand.New(rand.NewSource(7)), 1)
	a, _ := orig.Forward([]*tensor.Tensor{in}, false)
	b, _ := fresh.Forward([]*tensor.Tensor{in}, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("restored network differs from original")
		}
	}
	// Mismatched architecture must fail.
	rng := rand.New(rand.NewSource(8))
	other := nn.NewNetwork([]int{4})
	other.MustAdd(nn.NewDense("d", 4, 2, 0, rng), nn.GraphInput(0))
	if err := m.RestoreInto(other); err == nil {
		t.Fatal("restore into different architecture must fail")
	}
}

func TestTransferFromCheckpoint(t *testing.T) {
	provider := sampleNet(9)
	m := FromNetwork([]int{0}, 0.5, provider)
	receiver := sampleNet(10)
	stats, err := core.Transfer(core.LCS{}, m.Sources(), receiver)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Copied != 3 {
		t.Fatalf("copied = %d, want 3", stats.Copied)
	}
}

func testStore(t *testing.T, s Store) {
	t.Helper()
	m := FromNetwork([]int{1, 2}, 0.5, sampleNet(11))
	n, err := s.Save("cand-1", m)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("size = %d", n)
	}
	size, err := s.Size("cand-1")
	if err != nil {
		t.Fatal(err)
	}
	if size != n {
		t.Fatalf("Size = %d, Save reported %d", size, n)
	}
	got, err := s.Load("cand-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != 0.5 || len(got.Groups) != len(m.Groups) {
		t.Fatalf("loaded %+v", got)
	}
	if _, err := s.Load("missing"); err == nil {
		t.Fatal("loading missing id must fail")
	}
	if _, err := s.Size("missing"); err == nil {
		t.Fatal("sizing missing id must fail")
	}
	if _, err := s.Save("cand-2", m); err != nil {
		t.Fatal(err)
	}
	ids, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "cand-1" || ids[1] != "cand-2" {
		t.Fatalf("List = %v", ids)
	}
	if err := s.Delete("cand-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("cand-1"); err == nil {
		t.Fatal("double delete must fail")
	}
	ids, _ = s.List()
	if len(ids) != 1 {
		t.Fatalf("List after delete = %v", ids)
	}
}

func TestCASStoresMeetStoreContract(t *testing.T) {
	casStores(t, func(t *testing.T, s *CASStore) { testStore(t, s) })
}

func TestCASDiskStoreRejectsBadIDs(t *testing.T) {
	s, err := NewCASDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := FromNetwork([]int{0}, 0, sampleNet(12))
	for _, id := range []string{"", "a/b", `a\b`, ".."} {
		if _, err := s.Save(id, m); err == nil {
			t.Errorf("id %q must be rejected", id)
		}
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewCASMemStore()
	m := FromNetwork([]int{0}, 0, sampleNet(13))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := "cand-" + strings.Repeat("x", w+1)
				if _, err := s.Save(id, m); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Load(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestCheckpointSizeScalesWithModel(t *testing.T) {
	// Fig 11 premise: checkpoint size tracks parameter count.
	small := FromNetwork([]int{0}, 0, sampleNet(14))
	rng := rand.New(rand.NewSource(15))
	big := nn.NewNetwork([]int{4})
	big.MustAdd(nn.NewDense("d1", 4, 256, 0, rng), nn.GraphInput(0))
	big.MustAdd(nn.NewDense("d2", 256, 2, 0, rng), 0)
	bigM := FromNetwork([]int{0}, 0, big)
	s := NewCASMemStore()
	ns, _ := s.Save("small", small)
	nb, _ := s.Save("big", bigM)
	if nb <= ns {
		t.Fatalf("big checkpoint (%d B) not larger than small (%d B)", nb, ns)
	}
}

// swtcGolden pins the SHA-256 of each of realModels' SWTC streams, in
// order: disk objects and journal manifests written by earlier builds name
// streams by these bytes, so a codec change that moves one byte strands them.
var swtcGolden = []string{
	"cifar10/f64 3903b9b883b842affadaa241dcbd268f06603a2a3cadcef1c32d91c09be62c98",
	"cifar10/f32 57fb261041b4730c77d900bbd4f9a3c4072e1f22e1cc95b863a4f953854c7eb0",
	"mnist/f64 65056ab3e2089ac29c4565a475fe675220e75d8e95e43289de687da202dbe46a",
	"mnist/f32 fe009a5a98495b2391d9f9741754731dc167cdb7aa15c9a14ba0c21371a49745",
	"nt3/f64 852c2cb593c4e44331cbd4e57aba3b8dab49cbd037a7966629020ad7c794414e",
	"nt3/f32 21a89c78cf239e293b2f8697d99f169759d3ac0d31d11eb6c5e80fd3427178a7",
	"uno/f64 d23d9ed877c2fbd171639cbffe65f0be169680b1e903c6a4ac53d930f354fafb",
	"uno/f32 f0bb695555fe629ea6cfa214d77960369672464779f9069148a81bfeb296dab6",
}

// TestSWTCGolden: the stream of a real candidate of every application at
// both dtypes is byte-for-byte the one earlier builds wrote, and decoding it
// and encoding the result gives those bytes back.
func TestSWTCGolden(t *testing.T) {
	models := realModels(t)
	if len(models) != len(swtcGolden) {
		t.Fatalf("%d models, %d pinned digests", len(models), len(swtcGolden))
	}
	for i, m := range models {
		stream, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		name, want, _ := strings.Cut(swtcGolden[i], " ")
		if got := fmt.Sprintf("%x", sha256.Sum256(stream)); got != want {
			t.Errorf("%s: stream of %d bytes has SHA-256 %s, want %s", name, len(stream), got, want)
		}
		dec, err := Decode(stream)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := dec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, stream) {
			t.Errorf("%s: decoding and re-encoding changed the stream", name)
		}
	}
}
