package swtnas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"swtnas/internal/checkpoint"
	"swtnas/internal/nn"
	"swtnas/internal/search"
)

// TestSearchF32EndToEnd runs the same tiny search in both dtypes and pins
// the DESIGN.md §14 contracts at the library surface: the proposal stream is
// dtype-independent (candidates are built and mutated in f64 either way, so
// the architectures match position for position), f32 scores land close to
// their f64 twins, and phase 2 (FullyTrain) restores an f32-tagged
// checkpoint through the f64 path.
func TestSearchF32EndToEnd(t *testing.T) {
	run := func(dtype string) *Result {
		res, err := Search(SearchOptions{
			App: "nt3", Scheme: "LCS", Budget: 8, Seed: 5, DType: dtype,
			TrainN: 24, ValN: 12, PopulationSize: 4, SampleSize: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r64, r32 := run("f64"), run("f32")
	if len(r32.Candidates) != 8 {
		t.Fatalf("f32 search completed %d candidates, want 8", len(r32.Candidates))
	}
	for i, c := range r32.Candidates {
		d := r64.Candidates[i]
		if c.ID != d.ID {
			t.Fatalf("candidate order diverged at %d: f32 id %d, f64 id %d", i, c.ID, d.ID)
		}
		for j, a := range c.Arch {
			if d.Arch[j] != a {
				t.Fatalf("candidate %d arch diverged: f32 %v, f64 %v", c.ID, c.Arch, d.Arch)
			}
		}
		if diff := c.Score - d.Score; diff > 0.15 || diff < -0.15 {
			t.Errorf("candidate %d: f32 score %.4f vs f64 %.4f", c.ID, c.Score, d.Score)
		}
	}
	if _, err := r32.FullyTrain(r32.Best(1)[0]); err != nil {
		t.Fatalf("FullyTrain from an f32 checkpoint: %v", err)
	}
}

func TestSearchDTypeValidation(t *testing.T) {
	for _, bad := range []string{"f16", "double", "F32"} {
		err := SearchOptions{App: "nt3", Budget: 1, DType: bad}.Validate()
		var ie *InvalidOptionError
		if !errors.As(err, &ie) || ie.Field != "DType" {
			t.Fatalf("DType %q: err = %v, want InvalidOptionError{Field: DType}", bad, err)
		}
	}
	for _, ok := range []string{"", "f32", "f64", "float32", "float64"} {
		if err := (SearchOptions{App: "nt3", Budget: 1, DType: ok}).Validate(); err != nil {
			t.Fatalf("DType %q rejected: %v", ok, err)
		}
	}
}

// f64SearchDigest is the digest TestF64SearchDigest expects, recorded at the
// commit before the f64 products moved onto assembly tile kernels, when the
// generic Go micro-kernels (zero-skip included) were the only f64 path.
const f64SearchDigest = "11ef63d60659cff59f9cab78945749bb"

// TestF64SearchDigest pins the f64 training arithmetic end to end: a small
// nt3/f64/LCS search on one evaluator, hashed over every candidate's id,
// parent, architecture and score bits and over the truncated SHA-256 of each
// distinct trained tensor's raw bytes, read back from the disk store and
// spelled as the per-tensor blob file names of the store the constant was
// recorded with, so one flipped bit in one weight of one candidate changes
// the digest. The constant must hold on both bodies — the AVX2 kernels of
// the default build and the Go loops of -tags purego: AVX2 ≡ loops ≡ the
// commit the constant was recorded at.
// It skips (skipUnlessDigestHost) off amd64, whose compilers fuse a·b+c
// into one rounding, which the amd64 one never does, and where math.Exp is
// unfused: the digest was recorded on its fused multiply-add sequence.
func TestF64SearchDigest(t *testing.T) {
	skipUnlessDigestHost(t)
	onBodyInUse(t, testF64SearchDigest)
}

// skipUnlessDigestHost skips a digest test where the arithmetic it pins
// is not the one recorded: off amd64, and where internal/tensor's probe
// finds math.Exp unfused (no FMA, or GODEBUG=cpu.fma=off — the softmax,
// Tanh and Sigmoid all round through it).
func skipUnlessDigestHost(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64: compilers that fuse multiply-add round differently")
	}
	if !expFused {
		t.Skip("math.Exp takes its unfused sequence here (no FMA, or GODEBUG=cpu.fma=off): the digest was recorded on its fused one")
	}
}

func testF64SearchDigest(t *testing.T) {
	got, _ := searchDigest(t, SearchOptions{
		App: "nt3", Scheme: "LCS", Budget: 6, Seed: 11, Workers: 1,
		PopulationSize: 3, SampleSize: 2,
	})
	if got != f64SearchDigest {
		t.Fatalf("digest %s, want %s: the f64 arithmetic of a search changed", got, f64SearchDigest)
	}
}

// f32SearchDigest is the digest TestF32SearchDigest expects, recorded at the
// commit before Tanh, Sigmoid and Dropout's forward pass left their Go loops.
const f32SearchDigest = "3c7ba535e8a69fa0479fd599cb616b1a"

// TestF32SearchDigest pins the f32 training arithmetic of the two searches
// swtnas-server's benchmark tenants run, mnist/f32 and uno/f32, hashed like
// TestF64SearchDigest (both searches into one digest). Their architectures
// between them hold Tanh, Sigmoid and Dropout layers, so the digest covers
// every elementwise forward pass a search runs. It must hold on both
// bodies, and skips where TestF64SearchDigest does.
func TestF32SearchDigest(t *testing.T) {
	skipUnlessDigestHost(t)
	onBodyInUse(t, testF32SearchDigest)
}

func testF32SearchDigest(t *testing.T) {
	h := sha256.New()
	var archs []string
	for _, opt := range []SearchOptions{
		{App: "mnist", Seed: 4, TrainN: 96, ValN: 32},
		{App: "uno", Seed: 2, TrainN: 96, ValN: 32},
	} {
		opt.Scheme, opt.DType, opt.Budget, opt.Workers = "LCS", "f32", 6, 1
		opt.PopulationSize, opt.SampleSize = 3, 2
		d, res := searchDigest(t, opt)
		fmt.Fprintln(h, d)
		archs = append(archs, describeAll(t, res)...)
	}
	all := strings.Join(archs, "\n")
	for _, layer := range []string{"=tanh", "=sigmoid", "=Dropout("} {
		if !strings.Contains(all, layer) {
			t.Fatalf("no pinned architecture has a %s layer: the digest would not cover it\n%s", layer, all)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)[:16]); got != f32SearchDigest {
		t.Fatalf("digest %s, want %s: the f32 arithmetic of a search changed", got, f32SearchDigest)
	}
}

// convSearchDigest is the digest TestConvSearchDigest expects, recorded at
// the commit before the max-pool forward pass and BatchNorm's passes left
// their per-element loops.
const convSearchDigest = "97483258e92144644d58a4feb08826e0"

// TestConvSearchDigest pins the f32 training arithmetic of a cifar10
// search, the one application whose space holds BatchNorm and whose maps
// are wide enough for a 2-D max-pool, hashed like TestF64SearchDigest. Its
// architectures between them hold a BatchNorm and a MaxPool2D that is not
// degraded to the identity, so the digest covers both layers' passes. It
// must hold on both bodies, and skips where TestF64SearchDigest does.
func TestConvSearchDigest(t *testing.T) {
	skipUnlessDigestHost(t)
	onBodyInUse(t, testConvSearchDigest)
}

func testConvSearchDigest(t *testing.T) {
	got, res := searchDigest(t, SearchOptions{
		App: "cifar10", Scheme: "LCS", DType: "f32", Budget: 6, Seed: 1, Workers: 1,
		TrainN: 96, ValN: 32, PopulationSize: 3, SampleSize: 2,
	})
	var pool, bn bool
	for _, c := range res.Candidates {
		net, err := res.app.Space.Build(search.Arch(c.Arch), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range net.Layers() {
			switch l := l.(type) {
			case *nn.MaxPool2D:
				pool = pool || !l.IsIdentity()
			case *nn.BatchNorm:
				bn = true
			}
		}
	}
	if !pool || !bn {
		t.Fatalf("pinned architectures: a MaxPool2D not the identity %v, a BatchNorm %v: the digest would not cover both\n%s",
			pool, bn, strings.Join(describeAll(t, res), "\n"))
	}
	if got != convSearchDigest {
		t.Fatalf("digest %s, want %s: the f32 arithmetic of a cifar10 search changed", got, convSearchDigest)
	}
}

// searchDigest runs opt with a disk store and returns its digest — every
// candidate's id, parent, architecture and score bits, then the truncated
// SHA-256 of each distinct trained tensor's raw float64 bytes, spelled as
// the per-tensor blob file names of the store TestF64SearchDigest was
// recorded with — and the search's result.
func searchDigest(t *testing.T, opt SearchOptions) (string, *Result) {
	t.Helper()
	dir := t.TempDir()
	opt.CheckpointDir = dir
	res, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	transferred := 0
	for _, c := range res.Candidates {
		fmt.Fprintf(h, "%d %d %v %016x\n", c.ID, c.ParentID, c.Arch, math.Float64bits(c.Score))
		transferred += c.TransferredLayers
	}
	if transferred == 0 {
		t.Fatalf("%s: no candidate was warm-started: the digest would not cover weight transfer", opt.App)
	}
	store, err := checkpoint.NewCASDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	var blobs []string
	for _, id := range ids {
		m, err := store.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range m.Groups {
			for _, ts := range g.Tensors {
				raw := make([]byte, 0, 8*len(ts.Data))
				for _, v := range ts.Data {
					raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
				}
				blobs = append(blobs, checkpoint.HashBlob(raw).String()+".blob")
			}
		}
	}
	slices.Sort(blobs)
	for _, name := range slices.Compact(blobs) {
		fmt.Fprintln(h, name)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), res
}

// describeAll returns each candidate's described architecture.
func describeAll(t *testing.T, res *Result) []string {
	t.Helper()
	var described []string
	for _, c := range res.Candidates {
		d, err := res.DescribeArch(c.Arch)
		if err != nil {
			t.Fatal(err)
		}
		described = append(described, d)
	}
	return described
}
