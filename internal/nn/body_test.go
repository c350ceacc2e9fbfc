package nn

import (
	"flag"
	"os"
	"testing"
	_ "unsafe" // for go:linkname
)

// gemmVectorBytes is internal/tensor's choice of GEMM body (32: AVX2, 16:
// SSE2, 8: the Go loops). Production code cannot change it, so — like the
// pool's grain in grain_test.go — a test of another package reaches it by
// name: -gemm.sse2 runs this package's suites (both gradcheck suites, the
// conv-direct equivalence tests) on the 16-byte bodies of an AVX2 host, the
// leg CI runs beside the default and purego ones.
//
//go:linkname gemmVectorBytes swtnas/internal/tensor.gemmVectorBytes
var gemmVectorBytes int

var forceSSE2 = flag.Bool("gemm.sse2", false, "run the 16-byte (SSE2) GEMM bodies even where AVX2 is usable")

func TestMain(m *testing.M) {
	flag.Parse()
	if *forceSSE2 && gemmVectorBytes == 32 {
		gemmVectorBytes = 16
	}
	os.Exit(m.Run())
}
