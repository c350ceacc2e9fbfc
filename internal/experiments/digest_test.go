package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
	_ "unsafe" // for go:linkname
)

// expFused is internal/tensor's probe of math.Exp: whether it takes its
// fused multiply-add sequence here. runnersDigest was recorded where it does.
//
//go:linkname expFused swtnas/internal/tensor.expFused
var expFused bool

// runnersDigest is the digest TestRunnersOutputDigest expects, recorded
// while each runner still built its own training configuration, checkpoint
// reload, τ sample and makespan scan.
const runnersDigest = "0606e39fdb58f7293a0bdeb60b6ac727"

// TestRunnersOutputDigest pins what the runners print: every experiment
// but dist and sim (whose rows are wall-clock times and metric deltas), at
// a small scale over nt3 and mnist, two repetitions and up to eight
// full-training epochs (so early stopping fires), hashed into one
// digest. The trace fields the runners read that are wall-clock —
// CompletedAt and TrainTime — are overwritten in the cached campaigns
// with a function of the scheme, repetition and candidate id before any
// runner reads them; the schemes' makespans then differ, so phase 2's
// cutoff drops candidates. Everything else printed is a function of the
// seed. Like the root package's search digests it skips off amd64 and
// where math.Exp is unfused.
func TestRunnersOutputDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64: compilers that fuse multiply-add round differently")
	}
	if !expFused {
		t.Skip("math.Exp takes its unfused sequence here (no FMA, or GODEBUG=cpu.fma=off): the digest was recorded on its fused one")
	}
	cfg := tinyCfg("nt3", "mnist")
	cfg.Seeds, cfg.FullEpochs = 2, 8
	s := NewSuite(cfg)
	for _, name := range cfg.Apps {
		for si, scheme := range Schemes() {
			c, err := s.Campaign(name, scheme)
			if err != nil {
				t.Fatal(err)
			}
			for rep, tr := range c.Traces {
				step := time.Duration(1000+37*si+11*rep) * time.Millisecond
				for i := range tr.Records {
					r := &tr.Records[i]
					r.CompletedAt = time.Duration(r.ID+1) * step
					r.TrainTime = time.Duration(r.ID%5+1) * 100 * time.Millisecond
				}
			}
		}
	}
	var out strings.Builder
	for _, run := range []func(io.Writer) error{
		func(w io.Writer) error { _, err := s.Table1(w); return err },
		func(w io.Writer) error { _, err := s.Fig2(w); return err },
		s.Fig3,
		func(w io.Writer) error { _, err := s.Fig4(w); return err },
		func(w io.Writer) error { _, err := s.Fig5(w); return err },
		func(w io.Writer) error { _, _, err := s.Fig7(w); return err },
		func(w io.Writer) error { _, _, err := s.Fig8(w); return err },
		func(w io.Writer) error { _, err := s.Table3(w); return err },
		func(w io.Writer) error { _, err := s.Table4(w); return err },
		func(w io.Writer) error { _, err := s.Fig9(w); return err },
		func(w io.Writer) error { _, err := s.Fig10(w); return err },
		func(w io.Writer) error { _, err := s.Fig11(w); return err },
		func(w io.Writer) error { _, err := s.Proxy(w); return err },
		func(w io.Writer) error { _, err := s.Dtype(w); return err },
	} {
		if err := run(&out); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256([]byte(out.String()))
	if got := hex.EncodeToString(sum[:16]); got != runnersDigest {
		t.Fatalf("digest %s, want %s: what the runners print changed\n%s", got, runnersDigest, out.String())
	}
}
