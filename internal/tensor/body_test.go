package tensor

import (
	"flag"
	"fmt"
	"os"
	"testing"
)

// The one way to reach a body other than the one init chose: a test writes
// gemmVectorBytes. Production code has no switch — no flag, environment
// variable or build tag selects the SSE2 body on an AVX2 host — so the flag
// below exists in test binaries only (internal/nn and the root package
// carry the same three lines over a go:linkname), for the CI leg that runs
// whole packages on the narrow body.
var forceSSE2 = flag.Bool("gemm.sse2", false, "run the 16-byte (SSE2) GEMM bodies even where AVX2 is usable")

// hostVectorBytes is the widest body these tests may run: what init chose,
// or 16 under -gemm.sse2.
var hostVectorBytes = gemmVectorBytes

func TestMain(m *testing.M) {
	flag.Parse()
	if *forceSSE2 && gemmVectorBytes == 32 {
		gemmVectorBytes, hostVectorBytes = 16, 16
	}
	os.Exit(m.Run())
}

// setBody makes the products run the body of the given vector width for
// the rest of the test.
func setBody(t testing.TB, vectorBytes int) {
	prev := gemmVectorBytes
	gemmVectorBytes = vectorBytes
	t.Cleanup(func() { gemmVectorBytes = prev })
}

// eachBody runs f against every assembly body: as subtest vector_bytes=16
// and as vector_bytes=32, which skips — it never passes without having run
// — where the host cannot execute it. On a build whose products are the Go
// loops there is one body and f runs on it directly.
func eachBody(t *testing.T, f func(t *testing.T)) {
	if gemmVectorBytes == 8 {
		f(t)
		return
	}
	for _, vb := range []int{16, 32} {
		t.Run(fmt.Sprintf("vector_bytes=%d", vb), func(t *testing.T) {
			if vb > hostVectorBytes {
				t.Skipf("the %d-byte body cannot run here: no usable AVX2, or -gemm.sse2", vb)
			}
			setBody(t, vb)
			f(t)
		})
	}
}
