//go:build !purego

package tensor

// Vector bodies of SplitPlanes and JoinPlanes (planes_amd64.s): one AVX2
// text per direction and element width, run where the products run theirs
// (gemmVectorBytes is 32). A body covers whole groups of a call's elements —
// four 8-byte or eight 4-byte ones, 32 bytes — and the wrappers in planes.go
// run the rest through the Go loops. Byte shuffles, blends and moves only:
// every output byte is a copy of an input byte.

// split8AVX2 runs SplitPlanes over the first n elements of src, width 8, n
// a multiple of 4, with top0 and top1 the first bytes of planes 0 and 1.
//
//go:noescape
func split8AVX2(low, top0, top1, src *byte, n int)

// split4AVX2 is split8AVX2 at width 4, n a multiple of 8: one plane.
//
//go:noescape
func split4AVX2(low, top, src *byte, n int)

// join8AVX2 runs JoinPlanes over the first n elements of dst, width 8, n a
// multiple of 4.
//
//go:noescape
func join8AVX2(dst, low, top0, top1 *byte, n int)

// join4AVX2 is join8AVX2 at width 4, n a multiple of 8.
//
//go:noescape
func join4AVX2(dst, low, top *byte, n int)

// planeMasks are the VPSHUFB controls of the bodies, 32 bytes each, one
// 16-byte half per 128-bit lane; 0x80 writes a zero (planes_amd64.s names
// them). A join's low half reads lane 0 from a group's low byte 0 and lane
// 1 from its byte 8, so neither reads past the group's low bytes.
var planeMasks = func() (m [6][32]byte) {
	const z = 0x80
	for i, lanes := range [6][2][16]byte{
		// join, width 8: each element's six low bytes to bytes 0–5 of its
		// word, zeros above; its top bytes from the plane dwords (plane 0
		// in even dwords, plane 1 in odd ones) to bytes 6 and 7.
		{{0, 1, 2, 3, 4, 5, z, z, 6, 7, 8, 9, 10, 11, z, z}, {4, 5, 6, 7, 8, 9, z, z, 10, 11, 12, 13, 14, 15, z, z}},
		{{z, z, z, z, z, z, 0, 4, z, z, z, z, z, z, 1, 5}, {z, z, z, z, z, z, 2, 6, z, z, z, z, z, z, 3, 7}},
		// join, width 4: three low bytes and the plane byte a word.
		{{0, 1, 2, z, 3, 4, 5, z, 6, 7, 8, z, 9, 10, 11, z}, {4, 5, 6, z, 7, 8, 9, z, 10, 11, 12, z, 13, 14, 15, z}},
		{{z, z, z, 0, z, z, z, 1, z, z, z, 2, z, z, z, 3}, {z, z, z, 4, z, z, z, 5, z, z, z, 6, z, z, z, 7}},
		// split, width 8: a lane's two elements' low bytes, then their byte
		// 6s, then their byte 7s.
		{{0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 6, 14, 7, 15}, {0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 6, 14, 7, 15}},
		// split, width 4: a lane's four elements' low bytes, then their top bytes.
		{{0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, 3, 7, 11, 15}, {0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, 3, 7, 11, 15}},
	} {
		copy(m[i][:16], lanes[0][:])
		copy(m[i][16:], lanes[1][:])
	}
	return m
}()

// splitBody runs one checked SplitPlanes call's whole groups on the body of
// its width where gemmVectorBytes is 32, and returns how many elements it
// covered.
func splitBody(low, planes []byte, stride int, src []byte, width int) int {
	if gemmVectorBytes != 32 {
		return 0
	}
	n := len(src) / width
	if width == 8 {
		if n &^= 3; n > 0 {
			split8AVX2(&low[0], &planes[0], &planes[stride], &src[0], n)
		}
		return n
	}
	if n &^= 7; n > 0 {
		split4AVX2(&low[0], &planes[0], &src[0], n)
	}
	return n
}

// joinBody is splitBody for JoinPlanes.
func joinBody(dst, low, planes []byte, stride, width int) int {
	if gemmVectorBytes != 32 {
		return 0
	}
	n := len(dst) / width
	if width == 8 {
		if n &^= 3; n > 0 {
			join8AVX2(&dst[0], &low[0], &planes[0], &planes[stride], n)
		}
		return n
	}
	if n &^= 7; n > 0 {
		join4AVX2(&dst[0], &low[0], &planes[0], n)
	}
	return n
}
