package swtnas

import (
	"flag"
	"fmt"
	"os"
	"testing"
	_ "unsafe" // for go:linkname
)

// gemmVectorBytes is internal/tensor's choice of GEMM body (32: AVX2, 16:
// SSE2, 8: the Go loops). No option, flag or environment variable of the
// library reaches it; the tests that must hold on every body reach it by
// name, and -gemm.sse2 runs this package's whole suite on the 16-byte
// bodies of an AVX2 host (the CI leg beside the default and purego ones).
//
//go:linkname gemmVectorBytes swtnas/internal/tensor.gemmVectorBytes
var gemmVectorBytes int

// expFused is internal/tensor's probe of math.Exp: whether it takes its
// fused multiply-add sequence here, as it does on an amd64 host with FMA
// unless GODEBUG=cpu.fma=off. Both search digests were recorded where it
// does, and skip where it does not.
//
//go:linkname expFused swtnas/internal/tensor.expFused
var expFused bool

var forceSSE2 = flag.Bool("gemm.sse2", false, "run the 16-byte (SSE2) GEMM bodies even where AVX2 is usable")

func TestMain(m *testing.M) {
	flag.Parse()
	if *forceSSE2 && gemmVectorBytes == 32 {
		gemmVectorBytes = 16
	}
	os.Exit(m.Run())
}

// eachGemmBody runs f on every GEMM body this build has: the Go loops alone
// under purego and off amd64; otherwise, as in internal/tensor's eachBody,
// subtests vector_bytes=16 (SSE2) and vector_bytes=32 (AVX2), the wide one
// skipping where the host (or -gemm.sse2) rules it out.
func eachGemmBody(t *testing.T, f func(t *testing.T)) {
	host := gemmVectorBytes
	if host == 8 {
		f(t)
		return
	}
	for _, vb := range []int{16, 32} {
		t.Run(fmt.Sprintf("vector_bytes=%d", vb), func(t *testing.T) {
			if vb > host {
				t.Skip("the AVX2 bodies cannot run here: no usable AVX2, or -gemm.sse2")
			}
			gemmVectorBytes = vb
			defer func() { gemmVectorBytes = host }()
			f(t)
		})
	}
}
