package checkpoint

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"swtnas/internal/tensor"
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
// and save nothing. The coded section is read by inflate (inflate.go),
// which admits only the two block types the writer emits.
const (
	objectMagic = "SWTO"
	objectHead  = len(objectMagic) + 8
	objectTail  = 4
)

// castagnoli is the CRC-32C table, hardware-accelerated on amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// objectCap is the most bytes pack makes of a size-byte stream: its framing,
// the stream itself and, for a stream it cannot shrink, deflate's 5 bytes a
// stored block of up to 64 KiB. pack sizes its coded part by it, so that
// buffer is never re-grown, and a read refuses a larger file before it
// allocates for it.
func objectCap(size int64) int64 {
	size = min(size, math.MaxInt64>>1)
	return int64(objectHead) + size + size>>12 + 64 + objectTail
}

// packer is one writer's state, kept from one object to the next: the
// deflate writer, the object's first part and the plane buffer. Every byte a
// pack returns is written by that pack, so what an earlier object left in a
// buffer never shows. The verbatim section, three quarters of an object, is
// not kept: a pooled packer holds no buffer the size of a stream.
type packer struct {
	zw     *flate.Writer
	coded  bytes.Buffer // the framing, then the coded section
	planes []byte       // the top byte planes, the coded section's last input
}

// packers are the disk backend's packers, shared by every store's saves.
var packers = sync.Pool{New: func() any { return new(packer) }}

// pack is the disk backend's at-rest encoding of an SWTC stream. The object
// is returned in its two parts, head (the framing and the coded section) and
// tail (the verbatim section and the CRC), the file's bytes in that order;
// head is p's until its next pack, tail the caller's. One pass over each
// tensor payload (tensor.SplitPlanes) writes its elements' low bytes to the
// verbatim section and their top bytes to the planes, which the deflate
// writer then codes after the metadata.
func (p *packer) pack(stream []byte) (head, tail []byte, err error) {
	dt, spans, _, err := walk(stream, false, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: packing a stream: %w", err)
	}
	width := dt.Size()
	top, low := tensor.PlaneBytes(width)
	elems := 0
	for _, s := range spans {
		elems += s.n
	}
	tail = make([]byte, low*elems+objectTail)
	planes := grow(&p.planes, int64(top*elems))
	e := 0
	for _, s := range spans {
		tensor.SplitPlanes(tail[low*e:], planes[e:], elems, stream[s.at:s.at+s.n*width], width)
		e += s.n
	}
	binary.LittleEndian.PutUint32(tail[low*elems:], crc32.Checksum(stream, castagnoli))

	p.coded.Reset()
	p.coded.Grow(int(objectCap(int64(len(stream) - low*elems))))
	p.coded.Write(make([]byte, objectHead))
	if p.zw == nil {
		if p.zw, err = flate.NewWriter(&p.coded, flate.HuffmanOnly); err != nil {
			return nil, nil, err
		}
	} else {
		p.zw.Reset(&p.coded)
	}
	at := 0
	for _, s := range spans {
		if _, err := p.zw.Write(stream[at:s.at]); err != nil {
			return nil, nil, err
		}
		at = s.at + s.n*width
	}
	if _, err := p.zw.Write(stream[at:]); err != nil {
		return nil, nil, err
	}
	if _, err := p.zw.Write(planes); err != nil {
		return nil, nil, err
	}
	if err := p.zw.Close(); err != nil {
		return nil, nil, err
	}
	head = p.coded.Bytes()
	copy(head, objectMagic)
	binary.LittleEndian.PutUint64(head[len(objectMagic):], uint64(len(head)-objectHead))
	return head, tail, nil
}

// objectBuffers are one reader's buffers, kept from one object to the next:
// the object file, the coded section's inflated bytes, the stream (or, for
// a check, a piece of it) and the inflater's tables. Every byte of a buffer an object uses is written before
// it is read, so what an earlier object left there never shows.
type objectBuffers struct {
	file, plain, stream, chunk []byte
	inf                        inflater
}

// readers are the object buffers of the reads that only check an object —
// adoption's and VerifyManifests' — shared by every store.
var readers = sync.Pool{New: func() any { return new(objectBuffers) }}

// grow returns (*p)[:n], reallocating *p when it is too short.
func grow(p *[]byte, n int64) []byte {
	if int64(cap(*p)) < n {
		*p = make([]byte, n)
	}
	return (*p)[:n]
}

// readFile reads the object file of mf, at path, into b.file. A file that
// cannot be read is a readError; one larger than pack makes of the size mf
// names is refused by its size, naming the object, before it is read.
func (b *objectBuffers) readFile(path string, mf *Manifest) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, readError{err}
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, readError{err}
	}
	if fi.Size() > objectCap(mf.size) {
		return nil, fmt.Errorf("checkpoint: object %s is a %d-byte file, more than pack makes of the %d bytes its manifest names", mf.hash, fi.Size(), mf.size)
	}
	file := grow(&b.file, fi.Size())
	if _, err := io.ReadFull(f, file); err != nil {
		return nil, readError{err}
	}
	return file, nil
}

// unpack undoes pack for the object mf names and, when verify is set, checks
// the result against mf.hash. Every read checks the object's framing, that
// its coded section inflates to exactly the bytes the manifest's size leaves
// for it, that the stream's layout fills both sections and its dtype is the
// manifest's, and the CRC, so a corrupt or hostile object file is an error
// naming the object and costs at most the allocation an honest one would.
// The stream is built in buf's buffers, and is buf's until its next use; a
// nil buf allocates them, and the stream is then the caller's to keep.
func unpack(mf *Manifest, obj []byte, verify bool, buf *objectBuffers) ([]byte, error) {
	if buf == nil {
		buf = new(objectBuffers)
	}
	return buf.assemble(mf, obj, verify, true)
}

// check makes unpack's checks of the object mf names, the hash included,
// without keeping the stream: it is assembled checkChunk bytes at a time in
// buf, and each piece is hashed and dropped, so a check holds no buffer the
// size of the stream.
func check(mf *Manifest, obj []byte, buf *objectBuffers) error {
	_, err := buf.assemble(mf, obj, true, false)
	return err
}

// checkChunk is the piece of a stream check assembles at a time.
const checkChunk = 32 << 10

// assemble is unpack and check: it checks the object and lays the stream it
// holds out in a window — with keep, b.stream, the whole stream, which it
// returns; without, b.chunk — feeding each full window and the last to the
// CRC and, when verify is set, the hash. Nothing the size of the stream is
// allocated before the checks its framing allows have passed.
func (b *objectBuffers) assemble(mf *Manifest, obj []byte, verify, keep bool) ([]byte, error) {
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
	// A literal costs at least one bit and a stored byte eight, so the coded
	// section inflates at most 8:1, and a size the stored bytes cannot reach
	// is refused before it is allocated.
	if mf.size > int64(len(verbatim))+8*int64(len(coded)) {
		return fail("of %d stored bytes cannot hold the %d its manifest names", len(obj), mf.size)
	}
	if int64(len(verbatim)) > mf.size {
		return fail("holds %d verbatim bytes, more than the %d its manifest names", len(verbatim), mf.size)
	}
	plain := grow(&b.plain, mf.size-int64(len(verbatim)))
	// The deflate stream must fill plain exactly, and end with the coded section.
	switch n, err := b.inf.inflate(plain, coded); {
	case errors.Is(err, errInflatesShort):
		return fail("inflates to fewer than the %d bytes its manifest names", mf.size)
	case errors.Is(err, errInflatesPast):
		return fail("inflates past the %d bytes its manifest names", mf.size)
	case err != nil:
		return fail("%w", err)
	case n != len(coded):
		return fail("has %d bytes after its deflate stream", len(coded)-n)
	}
	dt, spans, meta, err := walk(plain, true, nil)
	if err != nil {
		return fail("%w", err)
	}
	if dt != mf.dtype {
		return fail("holds a %v stream, its manifest names %v", dt, mf.dtype)
	}
	width := dt.Size()
	top, low := tensor.PlaneBytes(width)
	elems := 0
	for _, s := range spans {
		elems += s.n
	}
	if len(plain)-meta != top*elems || len(verbatim) != low*elems {
		return fail("does not lay out %d elements in its %d coded and %d verbatim bytes", elems, len(plain)-meta, len(verbatim))
	}
	var w window
	if keep {
		w.b = grow(&b.stream, mf.size)
	} else {
		w.b = grow(&b.chunk, checkChunk)
	}
	if verify {
		w.hash = sha256.New()
	}
	planes, at, m, e := plain[meta:], 0, 0, 0
	for _, s := range spans {
		m += w.copy(plain[m : m+s.at-at])
		w.join(verbatim[low*e:], planes[e:], elems, width, s.n)
		at, e = s.at+s.n*width, e+s.n
	}
	w.copy(plain[m:meta])
	w.flush()
	if w.crc != binary.LittleEndian.Uint32(obj[len(obj)-objectTail:]) {
		return fail("fails its CRC-32C")
	}
	if verify && Hash(w.hash.Sum(nil)[:HashSize]) != mf.hash {
		return fail("content does not match its hash")
	}
	if !keep {
		return nil, nil
	}
	return w.b, nil
}

// window lays a stream out in b, from its start, and feeds b to the CRC and
// the hash (when set) each time it fills, and at the end.
type window struct {
	b    []byte
	n    int // bytes of b laid out
	crc  uint32
	hash hash.Hash
}

func (w *window) flush() {
	w.crc = crc32.Update(w.crc, castagnoli, w.b[:w.n])
	if w.hash != nil {
		w.hash.Write(w.b[:w.n])
	}
	w.n = 0
}

// copy lays p out and returns its length.
func (w *window) copy(p []byte) int {
	for c := 0; c < len(p); {
		if w.n == len(w.b) {
			w.flush()
		}
		k := copy(w.b[w.n:], p[c:])
		w.n, c = w.n+k, c+k
	}
	return len(p)
}

// join lays out n width-byte elements from their low bytes and top-byte
// planes (tensor.JoinPlanes), as many a time as the window holds.
func (w *window) join(low, planes []byte, stride, width, n int) {
	_, lb := tensor.PlaneBytes(width)
	for e := 0; e < n; {
		if len(w.b)-w.n < width {
			w.flush()
		}
		c := min(n-e, (len(w.b)-w.n)/width)
		tensor.JoinPlanes(w.b[w.n:w.n+c*width], low[lb*e:], planes[e:], stride, width)
		w.n, e = w.n+c*width, e+c
	}
}
