package tensor

import (
	"encoding/binary"
	"fmt"
)

// PlaneBytes returns how many of a width-byte element's bytes SplitPlanes
// puts in its byte planes (the top ones: sign, exponent and, at width 8, the
// first mantissa bits) and how many it keeps together as the element's low
// bytes. width is 8 or 4.
func PlaneBytes(width int) (top, low int) { return width / 4, width - width/4 }

// SplitPlanes splits each of the len(src)/width elements of src, width 8
// or 4, little-endian, in two: element i's low bytes go to
// low[i·lb : (i+1)·lb], in order, and its top byte j to planes[j·stride+i]
// (top, lb = PlaneBytes(width)). JoinPlanes is its inverse.
//
// splitPlanesGo is the definition. On amd64, where the products run their
// AVX2 bodies, whole groups of elements run as one AVX2 body per width
// (planes_amd64.s) and the rest through splitPlanesGo; TestPlanesMatchGo
// and FuzzPlanes hold the bodies to it byte for byte.
func SplitPlanes(low, planes []byte, stride int, src []byte, width int) {
	n := len(src) / width
	low, planes = planeBounds("SplitPlanes", low, planes, stride, len(src), width)
	i := splitBody(low, planes, stride, src, width)
	splitPlanesGo(low, planes, stride, src, width, i, n)
}

// JoinPlanes is SplitPlanes' inverse: it writes each of the len(dst)/width
// elements of dst from its low bytes in low and its top bytes in planes, as
// SplitPlanes lays them out. joinPlanesGo is the definition, and the AVX2
// bodies run where SplitPlanes' do.
func JoinPlanes(dst, low, planes []byte, stride, width int) {
	n := len(dst) / width
	low, planes = planeBounds("JoinPlanes", low, planes, stride, len(dst), width)
	i := joinBody(dst, low, planes, stride, width)
	joinPlanesGo(dst, low, planes, stride, width, i, n)
}

// planeBounds checks one SplitPlanes or JoinPlanes call of size bytes of
// elements and returns low and planes cut to the bytes it touches.
func planeBounds(op string, low, planes []byte, stride, size, width int) ([]byte, []byte) {
	if width != 8 && width != 4 {
		panic(fmt.Sprintf("tensor: %s of %d-byte elements: the width is 8 or 4", op, width))
	}
	n := size / width
	top, lb := PlaneBytes(width)
	if size%width != 0 || len(low) < lb*n || (n > 0 && (stride < n && top > 1 || len(planes) < (top-1)*stride+n)) {
		panic(fmt.Sprintf("tensor: %s of %d bytes of %d-byte elements: %d low bytes, %d plane bytes at stride %d",
			op, size, width, len(low), len(planes), stride))
	}
	if n == 0 {
		return low[:0], planes[:0]
	}
	return low[:lb*n], planes[:(top-1)*stride+n]
}

// splitPlanesGo is the definition of SplitPlanes over elements [from, n).
func splitPlanesGo(low, planes []byte, stride int, src []byte, width, from, n int) {
	if width == 8 {
		for i := from; i < n; i++ {
			x := binary.LittleEndian.Uint64(src[8*i:])
			binary.LittleEndian.PutUint32(low[6*i:], uint32(x))
			binary.LittleEndian.PutUint16(low[6*i+4:], uint16(x>>32))
			planes[i], planes[stride+i] = byte(x>>48), byte(x>>56)
		}
		return
	}
	for i := from; i < n; i++ {
		low[3*i], low[3*i+1], low[3*i+2], planes[i] = src[4*i], src[4*i+1], src[4*i+2], src[4*i+3]
	}
}

// joinPlanesGo is the definition of JoinPlanes over elements [from, n).
func joinPlanesGo(dst, low, planes []byte, stride, width, from, n int) {
	if width == 8 {
		for i := from; i < n; i++ {
			l := low[6*i : 6*i+6]
			x := uint64(binary.LittleEndian.Uint32(l)) | uint64(binary.LittleEndian.Uint16(l[4:]))<<32
			binary.LittleEndian.PutUint64(dst[8*i:], x|uint64(planes[i])<<48|uint64(planes[stride+i])<<56)
		}
		return
	}
	for i := from; i < n; i++ {
		l := low[3*i : 3*i+3]
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(l[0])|uint32(l[1])<<8|uint32(l[2])<<16|uint32(planes[i])<<24)
	}
}
