package swtnas

import (
	"fmt"
	"testing"
	_ "unsafe" // for go:linkname
)

// gemmVectorBytes is internal/tensor's choice of GEMM body (32: AVX2, 8:
// the Go loops). No option, flag or environment variable of the library
// reaches it; the tests read it by name.
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

// onBodyInUse runs f as subtest vector_bytes=N, N the body init chose, so
// that a digest's pass or failure names the body that produced it: the
// AVX2 kernels on the default build of an AVX2 host, the Go loops under
// -tags purego.
func onBodyInUse(t *testing.T, f func(t *testing.T)) {
	t.Run(fmt.Sprintf("vector_bytes=%d", gemmVectorBytes), f)
}
