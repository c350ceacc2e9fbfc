package checkpoint

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The object file: objectMagic, the coded section's length (u64), the coded
// section, the verbatim section, and the CRC-32C of the stream (u32). The
// coded section is one Huffman-only deflate stream of the SWTC stream's
// non-payload bytes followed by the top width/4 byte planes of every tensor
// element (f64: bytes 6 and 7, sign, exponent and the first mantissa bits;
// f32: byte 3) — the only bytes of a float that compress, because a
// network's weights share sign and a narrow exponent range. The verbatim
// section is each element's remaining low bytes, in element order, as they
// are: mantissa bits are effectively random, so coding them would cost CPU
// and save nothing.
const (
	objectMagic = "SWTO"
	objectHead  = len(objectMagic) + 8
	objectTail  = 4
)

// castagnoli is the CRC-32C table, hardware-accelerated on amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// planeBytes returns how many of a width-byte element's bytes the coded
// section holds (its top ones) and how many the verbatim section holds.
func planeBytes(width int) (top, low int) { return width / 4, width - width/4 }

// pack is the disk backend's at-rest encoding of an SWTC stream.
func pack(stream []byte) ([]byte, error) {
	dt, spans, walked, err := layout(stream, false)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: packing a stream: %w", err)
	}
	if walked != len(stream) {
		return nil, fmt.Errorf("checkpoint: packing a stream: %d bytes follow its last group", len(stream)-walked)
	}
	width := dt.Size()
	_, low := planeBytes(width)
	// Deflate stores a block it cannot shrink with 5 bytes of framing per
	// 64 KiB, so this capacity holds any object and out is not re-grown.
	out := bytes.NewBuffer(make([]byte, objectHead, objectHead+len(stream)+len(stream)>>12+64+objectTail))
	zw, err := flate.NewWriter(out, flate.HuffmanOnly)
	if err != nil {
		return nil, err
	}
	at := 0
	for _, s := range spans {
		if _, err := zw.Write(stream[at:s.at]); err != nil {
			return nil, err
		}
		at = s.at + s.n*width
	}
	if _, err := zw.Write(stream[at:]); err != nil {
		return nil, err
	}
	plane := make([]byte, 1<<12)
	for k := low; k < width; k++ {
		for _, s := range spans {
			for e := 0; e < s.n; e += len(plane) {
				c := min(len(plane), s.n-e)
				p := stream[s.at+e*width+k:]
				for j := range c {
					plane[j] = p[j*width]
				}
				if _, err := zw.Write(plane[:c]); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	obj := out.Bytes()
	copy(obj, objectMagic)
	binary.LittleEndian.PutUint64(obj[len(objectMagic):], uint64(len(obj)-objectHead))
	for _, s := range spans {
		obj = appendLow(obj, stream[s.at:s.at+s.n*width], width)
	}
	return binary.LittleEndian.AppendUint32(obj, crc32.Checksum(stream, castagnoli)), nil
}

// appendLow appends the low bytes of each width-byte element of p to dst,
// which has the room.
func appendLow(dst, p []byte, width int) []byte {
	n := len(p) / width
	_, low := planeBytes(width)
	out := dst[len(dst) : len(dst)+low*n]
	if width == 8 {
		for i := range n {
			x := binary.LittleEndian.Uint64(p[8*i:])
			binary.LittleEndian.PutUint32(out[6*i:], uint32(x))
			binary.LittleEndian.PutUint16(out[6*i+4:], uint16(x>>32))
		}
	} else {
		for i := range n {
			out[3*i], out[3*i+1], out[3*i+2] = p[4*i], p[4*i+1], p[4*i+2]
		}
	}
	return dst[:len(dst)+low*n]
}

// join is appendLow's inverse for the elements of dst: it takes each one's
// low bytes from low, in order, and its top byte k from planes[k*stride+i].
func join(dst, low, planes []byte, stride, width int) {
	if width == 8 {
		for i := range len(dst) / 8 {
			l := low[6*i : 6*i+6]
			x := uint64(binary.LittleEndian.Uint32(l)) | uint64(binary.LittleEndian.Uint16(l[4:]))<<32
			binary.LittleEndian.PutUint64(dst[8*i:], x|uint64(planes[i])<<48|uint64(planes[stride+i])<<56)
		}
		return
	}
	for i := range len(dst) / 4 {
		l := low[3*i : 3*i+3]
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(l[0])|uint32(l[1])<<8|uint32(l[2])<<16|uint32(planes[i])<<24)
	}
}

// unpack undoes pack for the object mf names and, when verify is set, checks
// the result against mf.hash. Every read checks the object's framing, that
// its coded section inflates to exactly the bytes the manifest's size leaves
// for it, that the stream's layout fills both sections and its dtype is the
// manifest's, and the CRC, so a corrupt or hostile object file is an error
// naming the object and costs at most the allocation an honest one would.
func unpack(mf *Manifest, obj []byte, verify bool) ([]byte, error) {
	fail := func(format string, args ...any) ([]byte, error) {
		return nil, fmt.Errorf("checkpoint: object %s "+format, append([]any{mf.hash}, args...)...)
	}
	if len(obj) >= 2 && obj[0] == 0x1f && obj[1] == 0x8b {
		return fail("is a gzip object of an earlier build (only %s objects are read)", objectMagic)
	}
	if len(obj) < objectHead+objectTail || string(obj[:len(objectMagic)]) != objectMagic {
		return fail("is not an %s object", objectMagic)
	}
	codedLen := binary.LittleEndian.Uint64(obj[len(objectMagic):])
	if codedLen > uint64(len(obj)-objectHead-objectTail) {
		return fail("names a %d-byte coded section in a %d-byte file", codedLen, len(obj))
	}
	coded := obj[objectHead : objectHead+int(codedLen)]
	verbatim := obj[objectHead+int(codedLen) : len(obj)-objectTail]
	// Deflate expands at most 1032:1, so a size the stored bytes cannot
	// reach is refused before it is allocated.
	if mf.size > int64(len(verbatim))+1032*int64(len(coded)) {
		return fail("of %d stored bytes cannot hold the %d its manifest names", len(obj), mf.size)
	}
	if int64(len(verbatim)) > mf.size {
		return fail("holds %d verbatim bytes, more than the %d its manifest names", len(verbatim), mf.size)
	}
	plain := make([]byte, mf.size-int64(len(verbatim)))
	src := bytes.NewReader(coded)
	zr := flate.NewReader(src)
	if _, err := io.ReadFull(zr, plain); err != nil {
		return fail("inflates to fewer than the %d bytes its manifest names: %w", mf.size, err)
	}
	// The deflate stream must end here, and the coded section with it.
	switch _, err := io.ReadFull(zr, make([]byte, 1)); err {
	case io.EOF:
	case nil:
		return fail("inflates past the %d bytes its manifest names", mf.size)
	default:
		return fail("%w", err)
	}
	if src.Len() != 0 {
		return fail("has %d bytes after its deflate stream", src.Len())
	}
	dt, spans, meta, err := layout(plain, true)
	if err != nil {
		return fail("%w", err)
	}
	if dt != mf.dtype {
		return fail("holds a %v stream, its manifest names %v", dt, mf.dtype)
	}
	width := dt.Size()
	top, low := planeBytes(width)
	elems := 0
	for _, s := range spans {
		elems += s.n
	}
	if len(plain)-meta != top*elems || len(verbatim) != low*elems {
		return fail("does not lay out %d elements in its %d coded and %d verbatim bytes", elems, len(plain)-meta, len(verbatim))
	}
	stream := make([]byte, mf.size)
	planes, at, m, e := plain[meta:], 0, 0, 0
	for _, s := range spans {
		m += copy(stream[at:s.at], plain[m:])
		at = s.at + s.n*width
		join(stream[s.at:at], verbatim[low*e:], planes[e:], elems, width)
		e += s.n
	}
	copy(stream[at:], plain[m:meta])
	if crc32.Checksum(stream, castagnoli) != binary.LittleEndian.Uint32(obj[len(obj)-objectTail:]) {
		return fail("fails its CRC-32C")
	}
	if verify && HashBlob(stream) != mf.hash {
		return fail("content does not match its hash")
	}
	return stream, nil
}
