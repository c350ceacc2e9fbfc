package tensor

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// planeGuard is how many bytes past its end each buffer of a planes check
// holds, filled with a byte no call writes there: a body that stores past
// its bytes changes them, and its output then differs from the Go loop's.
const planeGuard = 40

// checkPlanes splits the n width-byte elements at src[off:] and joins them
// back, on the Go loops and on every body the host runs, and requires every
// byte each call leaves in its buffers, guard bytes included, to be the Go
// loops', and the join to give the elements back. The planes sit gap bytes
// apart beyond n, and every buffer starts odd bytes into its allocation.
func checkPlanes(t *testing.T, src []byte, width, n, off, gap int) {
	t.Helper()
	top, lb := PlaneBytes(width)
	elems := src[off : off+n*width]
	stride := n + gap
	buffers := func() (low, planes, dst []byte) {
		fill := func(size int) []byte { return bytes.Repeat([]byte{0xC3}, 1+size+planeGuard)[1:] }
		return fill(lb * n), fill((top-1)*stride + n), fill(n * width)
	}
	var wantLow, wantPlanes, wantDst []byte
	onGo(func() {
		wantLow, wantPlanes, wantDst = buffers()
		SplitPlanes(wantLow, wantPlanes, stride, elems, width)
		JoinPlanes(wantDst[:n*width], wantLow, wantPlanes, stride, width)
	})
	if !bytes.Equal(wantDst[:n*width], elems) {
		t.Fatalf("width %d, %d elements: the Go loops' join of their split is not the elements", width, n)
	}
	for _, vb := range []int{8, 32} {
		if vb > hostVectorBytes {
			continue
		}
		setBody(t, vb)
		low, planes, dst := buffers()
		SplitPlanes(low, planes, stride, elems, width)
		if !bytes.Equal(low, wantLow) || !bytes.Equal(planes, wantPlanes) {
			t.Fatalf("vector_bytes=%d: split of %d %d-byte elements at offset %d, gap %d:\nlow    %x\nwant   %x\nplanes %x\nwant   %x",
				vb, n, width, off, gap, low, wantLow, planes, wantPlanes)
		}
		JoinPlanes(dst[:n*width], low, planes, stride, width)
		if !bytes.Equal(dst, wantDst) {
			t.Fatalf("vector_bytes=%d: join of %d %d-byte elements at offset %d, gap %d:\ngot  %x\nwant %x", vb, n, width, off, gap, dst, wantDst)
		}
	}
}

// TestPlanesMatchGo sweeps both widths over every element count from 0 to
// 70 — empty, shorter than a group, whole groups and every remainder — at
// each offset 0–3 of the elements, on random bytes: each body's split and
// join equal the Go loops' byte for byte, guard bytes included, and the join
// undoes the split.
func TestPlanesMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	src := make([]byte, 8*70+3)
	rng.Read(src)
	for _, width := range []int{8, 4} {
		for n := 0; n <= 70; n++ {
			for off := 0; off < 4; off++ {
				checkPlanes(t, src, width, n, off, n%3)
			}
		}
	}
}

// TestPlanesRefusesBadBounds: a width other than 8 or 4, a ragged source, a
// short low or plane buffer and, at width 8, overlapping planes panic before
// any byte is written.
func TestPlanesRefusesBadBounds(t *testing.T) {
	src := make([]byte, 64)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"width 2", func() { SplitPlanes(make([]byte, 64), make([]byte, 64), 32, src, 2) }},
		{"ragged", func() { SplitPlanes(make([]byte, 64), make([]byte, 64), 16, src[:63], 4) }},
		{"short low", func() { SplitPlanes(make([]byte, 47), make([]byte, 16), 8, src, 8) }},
		{"short planes", func() { JoinPlanes(src, make([]byte, 48), make([]byte, 15), 8, 8) }},
		{"overlapping planes", func() { JoinPlanes(src, make([]byte, 48), make([]byte, 64), 7, 8) }},
		{"short f32 plane", func() { JoinPlanes(src, make([]byte, 48), make([]byte, 15), 0, 4) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.call()
		}()
	}
}

// FuzzPlanes is the differential form of the sweep: arbitrary bytes as the
// elements, at both widths, every element count the bytes hold from any
// offset 0–7, and a plane gap of 0–3; each body must equal the Go loops
// byte for byte and the join must undo the split.
func FuzzPlanes(f *testing.F) {
	rng := rand.New(rand.NewSource(72))
	for _, n := range []int{0, 1, 7, 8, 9, 33, 200} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(uint8(n), seed)
	}
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		off, gap := int(shape%8), int(shape/8%4)
		if off > len(data) {
			return
		}
		for _, width := range []int{8, 4} {
			checkPlanes(t, data, width, (len(data)-off)/width, off, gap)
		}
	})
}

// BenchmarkPlanes times SplitPlanes and JoinPlanes per element on 1<<17
// elements (1 MiB at width 8), at both widths and on each body the host
// runs.
func BenchmarkPlanes(b *testing.B) {
	const n = 1 << 17
	rng := rand.New(rand.NewSource(73))
	for _, width := range []int{8, 4} {
		top, lb := PlaneBytes(width)
		src, dst := make([]byte, n*width), make([]byte, n*width)
		rng.Read(src)
		low, planes := make([]byte, lb*n), make([]byte, top*n)
		for _, dir := range []string{"split", "join"} {
			for _, vb := range []int{8, 32} {
				b.Run(fmt.Sprintf("%s/width=%d/vector_bytes=%d", dir, width, vb), func(b *testing.B) {
					if vb > hostVectorBytes {
						b.Skipf("the %d-byte body cannot run here", vb)
					}
					setBody(b, vb)
					b.SetBytes(int64(n * width))
					for i := 0; i < b.N; i++ {
						if dir == "split" {
							SplitPlanes(low, planes, n, src, width)
						} else {
							JoinPlanes(dst, low, planes, n, width)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/element")
				})
			}
		}
	}
}
