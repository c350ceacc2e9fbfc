package tensor

import (
	"fmt"
	"testing"
)

// hostVectorBytes is the body init chose: 32 where the AVX2 kernels run, 8
// where the products are the Go definitions. A test reaches the other body by
// writing gemmVectorBytes (setBody); production code has no switch — no
// flag, environment variable or build tag selects a body.
var hostVectorBytes = gemmVectorBytes

// setBody makes the products run the body of the given vector width for
// the rest of the test.
func setBody(t testing.TB, vectorBytes int) {
	prev := gemmVectorBytes
	gemmVectorBytes = vectorBytes
	t.Cleanup(func() { gemmVectorBytes = prev })
}

// onGo runs f on the Go definitions, whichever body the test is on: the
// oracle a body is held to.
func onGo(f func()) {
	prev := gemmVectorBytes
	gemmVectorBytes = 8
	defer func() { gemmVectorBytes = prev }()
	f()
}

// onBody runs f as subtest vector_bytes=vb on that body, skipping — it
// never passes without having run — where the host cannot execute it.
func onBody(t *testing.T, vb int, f func(t *testing.T)) {
	t.Run(fmt.Sprintf("vector_bytes=%d", vb), func(t *testing.T) {
		if vb > hostVectorBytes {
			t.Skipf("the %d-byte body cannot run here: no usable AVX2, or a build without the assembly", vb)
		}
		setBody(t, vb)
		f(t)
	})
}

// eachBody runs f on both bodies: vector_bytes=8, the Go definitions,
// reached on amd64 through the fallback an amd64 host without AVX2 takes,
// and vector_bytes=32, the AVX2 kernels.
func eachBody(t *testing.T, f func(t *testing.T)) {
	onBody(t, 8, f)
	onBody(t, 32, f)
}
