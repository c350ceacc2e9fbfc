package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"swtnas/internal/tensor"
)

// The SWTC stream: magic, version, dtype, a reserved word that must be zero,
// then the body with tensor data at the dtype's native width. Versions 1
// (untagged float64) and 2 (truncated / gzip-wrapped payloads) and the
// non-zero values of the reserved word (version 3's former encoding selector)
// are no longer written or read.
const (
	magic   = "SWTC"
	version = uint32(3)
)

// The decode limits, which keep a corrupt or hostile checkpoint from
// allocating unbounded memory: tensor element counts (and group and tensor
// counts), string lengths and int-slice lengths.
const (
	maxElems  = 1 << 28
	maxString = 1 << 20
	maxSlice  = 1 << 16
)

// Encode returns the model's SWTC stream. A tensor.F32 model stores 4 bytes
// per element without loss — an f32-trained network's weights are
// f32-representable by construction — and a tensor.F64 model 8. The stream
// is sized from the model first, so it is allocated once.
func (m *Model) Encode() ([]byte, error) {
	if !m.DType.Valid() {
		return nil, fmt.Errorf("checkpoint: invalid model dtype %d", uint8(m.DType))
	}
	timer := mEncodeSeconds.Start()
	width := m.DType.Size()
	size := len(magic) + 12 + 4 + 4*len(m.Arch) + 8 + 4
	for _, g := range m.Groups {
		size += 4 + len(g.Layer) + 4 + 4*len(g.Signature) + 4
		for _, t := range g.Tensors {
			if tensor.Numel(t.Shape) != len(t.Data) {
				return nil, fmt.Errorf("checkpoint: tensor %q data/shape mismatch", t.Name)
			}
			size += 4 + len(t.Name) + 4 + 4*len(t.Shape) + width*len(t.Data)
		}
	}
	b := append(make([]byte, 0, size), magic...)
	for _, word := range []uint32{version, uint32(m.DType), 0} {
		b = binary.LittleEndian.AppendUint32(b, word)
	}
	b = appendInts(b, m.Arch)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Score))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Groups)))
	for _, g := range m.Groups {
		b = appendString(b, g.Layer)
		b = appendInts(b, g.Signature)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(g.Tensors)))
		for _, t := range g.Tensors {
			b = appendString(b, t.Name)
			b = appendInts(b, t.Shape)
			b = appendData(b, t.Data, m.DType)
		}
	}
	timer.Stop()
	mEncodeCalls.Inc()
	mEncodeBytes.Add(int64(len(b)))
	return b, nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

func appendInts(b []byte, xs []int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(xs)))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(x)))
	}
	return b
}

// appendData appends tensor data at the dtype's native width as raw
// little-endian bytes. An F32 stream stores exactly the float32 bits of each
// value, lossless for f32-trained tensors.
func appendData(b []byte, data []float64, dt tensor.DType) []byte {
	at := len(b)
	b = append(b, make([]byte, dt.Size()*len(data))...)
	p := b[at:]
	if dt == tensor.F32 {
		for i, v := range data {
			binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(float32(v)))
		}
		return b
	}
	for i, v := range data {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(v))
	}
	return b
}

// Decode reads a model in SWTC binary format. Anything but the one stream
// Encode writes — another version, an unknown dtype, a non-zero reserved
// word, bytes after the last group — is an error naming what was found.
func Decode(b []byte) (*Model, error) {
	timer := mDecodeSeconds.Start()
	m := &Model{}
	if _, _, _, err := walk(b, false, m); err != nil {
		return nil, err
	}
	timer.Stop()
	mDecodeCalls.Inc()
	mDecodeBytes.Add(int64(len(b)))
	return m, nil
}

// span is one tensor payload of an SWTC stream: its byte offset in the
// stream and its element count.
type span struct{ at, n int }

// walk is the one SWTC parser. It reads the stream in b under the decode
// limits and returns its dtype, every tensor payload's span and the number
// of bytes of b it walked; a non-nil m is filled with the model as the walk
// goes. Every length is checked against the bytes left before anything is
// allocated for what it counts. Bytes after the last group are an error,
// except with meta set: then b holds only the stream's non-payload bytes —
// its payloads cut out — followed by whatever the caller keeps there, and
// the spans still give the payloads' places in the whole stream. m is nil in
// meta mode.
func walk(b []byte, meta bool, m *Model) (tensor.DType, []span, int, error) {
	w := walker{b: b}
	dt := w.header()
	arch := w.ints()
	score := w.take(8)
	nGroups := w.bounded(maxElems, "group count")
	if m != nil && w.err == nil {
		m.DType, m.Arch, m.Score = dt, toInts(arch), math.Float64frombits(binary.LittleEndian.Uint64(score))
	}
	var spans []span
	for gi := 0; gi < nGroups && w.err == nil; gi++ {
		layer, sig := w.str(), w.ints()
		var tensors []Tensor
		nT := w.bounded(maxElems, "tensor count")
		for ti := 0; ti < nT && w.err == nil; ti++ {
			name := w.str()
			shape, n := w.shape()
			if w.err != nil {
				break
			}
			spans = append(spans, span{at: w.off + w.cut, n: n})
			if meta {
				w.cut += n * dt.Size()
				continue
			}
			payload := w.take(n * dt.Size())
			if m != nil && w.err == nil {
				tensors = append(tensors, Tensor{Name: string(name), Shape: shape, Data: decodeData(payload, dt)})
			}
		}
		if m != nil && w.err == nil {
			m.Groups = append(m.Groups, Group{Layer: string(layer), Signature: toInts(sig), Tensors: tensors})
		}
	}
	if w.err == nil && !meta && w.off != len(b) {
		w.err = fmt.Errorf("checkpoint: %d bytes follow the stream's last group", len(b)-w.off)
	}
	if w.err != nil {
		return 0, nil, 0, w.err
	}
	return dt, spans, w.off, nil
}

// walker is walk's cursor: off bytes of b read, cut payload bytes absent
// from b before off, and the first error, after which every step is a no-op.
type walker struct {
	b        []byte
	off, cut int
	err      error
}

func (w *walker) take(n int) []byte {
	if w.err != nil {
		return nil
	}
	if n < 0 || n > len(w.b)-w.off { // n < 0: a payload size past int32 on 32-bit platforms
		w.err = io.ErrUnexpectedEOF
		return nil
	}
	w.off += n
	return w.b[w.off-n : w.off]
}

func (w *walker) u32() uint32 {
	if b := w.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// header checks a stream's 16 header bytes and returns its dtype.
func (w *walker) header() tensor.DType {
	if head := w.take(len(magic)); w.err != nil {
		w.err = fmt.Errorf("checkpoint: reading magic: %w", w.err)
	} else if string(head) != magic {
		w.err = fmt.Errorf("checkpoint: bad magic %q", head)
	}
	if ver := w.u32(); w.err == nil && ver != version {
		w.err = fmt.Errorf("checkpoint: unsupported SWTC version %d (only version %d is read)", ver, version)
	}
	dtU := w.u32()
	dt := tensor.DType(uint8(dtU))
	if w.err == nil && (dtU > 0xff || !dt.Valid()) {
		w.err = fmt.Errorf("checkpoint: invalid dtype %d", dtU)
	}
	if reserved := w.u32(); w.err == nil && reserved != 0 {
		w.err = fmt.Errorf("checkpoint: unsupported SWTC encoding %d (only native-width streams are read)", reserved)
	}
	return dt
}

// bounded reads a u32 length or count, failing past limit.
func (w *walker) bounded(limit int, what string) int {
	n := w.u32()
	if w.err == nil && n > uint32(limit) {
		w.err = fmt.Errorf("checkpoint: implausible %s %d", what, n)
	}
	return int(n)
}

// str reads a length-prefixed string's bytes.
func (w *walker) str() []byte {
	return w.take(w.bounded(maxString, "string length"))
}

// ints reads an int slice and returns its raw int32s.
func (w *walker) ints() []byte {
	return w.take(4 * w.bounded(maxSlice, "slice length"))
}

// toInts decodes raw int32s.
func toInts(raw []byte) []int {
	xs := make([]int, len(raw)/4)
	for i := range xs {
		xs[i] = int(int32(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return xs
}

// shape reads a tensor shape and returns it with its element count.
func (w *walker) shape() ([]int, int) {
	shape := toInts(w.ints())
	n, err := shapeElems(shape)
	if w.err == nil {
		w.err = err
	}
	return shape, n
}

// shapeElems returns a shape's element count, rejecting negative dimensions
// and products beyond maxElems (which also rules out overflow).
func shapeElems(shape []int) (int, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return 0, fmt.Errorf("checkpoint: negative dimension in shape %v", shape)
		}
		if n *= d; n > maxElems {
			return 0, fmt.Errorf("checkpoint: implausible tensor shape %v", shape)
		}
	}
	return n, nil
}

// decodeData decodes p, a whole number of dt-wide values.
func decodeData(p []byte, dt tensor.DType) []float64 {
	data := make([]float64, len(p)/dt.Size())
	if dt == tensor.F32 {
		for i := range data {
			data[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:])))
		}
		return data
	}
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return data
}
