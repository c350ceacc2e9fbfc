package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"swtnas/internal/obs"
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

// maxElems bounds decoded tensor sizes to keep a corrupt or hostile
// checkpoint from allocating unbounded memory.
const maxElems = 1 << 28

// Encode writes the model in SWTC binary format. A tensor.F32 model stores
// 4 bytes per element without loss — an f32-trained network's weights are
// f32-representable by construction — and a tensor.F64 model 8.
func (m *Model) Encode(w io.Writer) error {
	if !m.DType.Valid() {
		return fmt.Errorf("checkpoint: invalid model dtype %d", uint8(m.DType))
	}
	if !obs.Enabled() {
		return m.encode(w)
	}
	t := mEncodeSeconds.Start()
	cw := &countingWriter{w: w}
	err := m.encode(cw)
	if err == nil {
		t.Stop()
		mEncodeCalls.Inc()
		mEncodeBytes.Add(cw.n)
	}
	return err
}

func (m *Model) encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	for _, word := range []uint32{version, uint32(m.DType), 0} {
		if err := writeU32(bw, word); err != nil {
			return err
		}
	}
	if err := m.writeBody(bw); err != nil {
		return err
	}
	return bw.Flush()
}

func (m *Model) writeBody(w io.Writer) error {
	if err := writeIntSlice(w, m.Arch); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, math.Float64bits(m.Score)); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(m.Groups))); err != nil {
		return err
	}
	for _, g := range m.Groups {
		if err := writeString(w, g.Layer); err != nil {
			return err
		}
		if err := writeIntSlice(w, g.Signature); err != nil {
			return err
		}
		if err := writeU32(w, uint32(len(g.Tensors))); err != nil {
			return err
		}
		for _, t := range g.Tensors {
			if err := writeString(w, t.Name); err != nil {
				return err
			}
			if err := writeIntSlice(w, t.Shape); err != nil {
				return err
			}
			if tensor.Numel(t.Shape) != len(t.Data) {
				return fmt.Errorf("checkpoint: tensor %q data/shape mismatch", t.Name)
			}
			if _, err := w.Write(encodeTensorData(t.Data, m.DType)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Decode reads a model in SWTC binary format. Anything but the one stream
// Encode writes — another version, an unknown dtype, a non-zero reserved
// word — is an error naming what was found.
func Decode(r io.Reader) (*Model, error) {
	if !obs.Enabled() {
		return decode(r)
	}
	t := mDecodeSeconds.Start()
	cr := &countingReader{r: r}
	m, err := decode(cr)
	if err == nil {
		t.Stop()
		mDecodeCalls.Inc()
		mDecodeBytes.Add(cr.n)
	}
	return m, err
}

func decode(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	dt, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	m, err := readBody(br, dt)
	if err != nil {
		return nil, err
	}
	m.DType = dt
	return m, nil
}

// readHeader reads a stream's 16 header bytes and returns its dtype.
func readHeader(r io.Reader) (tensor.DType, error) {
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if string(head) != magic {
		return 0, fmt.Errorf("checkpoint: bad magic %q", head)
	}
	ver, err := readU32(r)
	if err != nil {
		return 0, err
	}
	if ver != version {
		return 0, fmt.Errorf("checkpoint: unsupported SWTC version %d (only version %d is read)", ver, version)
	}
	dtU, err := readU32(r)
	if err != nil {
		return 0, err
	}
	dt := tensor.DType(uint8(dtU))
	if dtU > 0xff || !dt.Valid() {
		return 0, fmt.Errorf("checkpoint: invalid dtype %d", dtU)
	}
	reserved, err := readU32(r)
	if err != nil {
		return 0, err
	}
	if reserved != 0 {
		return 0, fmt.Errorf("checkpoint: unsupported SWTC encoding %d (only native-width streams are read)", reserved)
	}
	return dt, nil
}

// readShape reads a tensor shape and its element count, rejecting negative
// dimensions and products beyond maxElems (which also rules out overflow).
func readShape(r io.Reader) ([]int, int, error) {
	shape, err := readIntSlice(r)
	if err != nil {
		return nil, 0, err
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, 0, fmt.Errorf("checkpoint: negative dimension in shape %v", shape)
		}
		if n *= d; n > maxElems {
			return nil, 0, fmt.Errorf("checkpoint: implausible tensor shape %v", shape)
		}
	}
	return shape, n, nil
}

func readBody(r io.Reader, dt tensor.DType) (*Model, error) {
	m := &Model{}
	var err error
	if m.Arch, err = readIntSlice(r); err != nil {
		return nil, err
	}
	var bits uint64
	if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
		return nil, err
	}
	m.Score = math.Float64frombits(bits)
	nGroups, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if nGroups > maxElems {
		return nil, fmt.Errorf("checkpoint: implausible group count %d", nGroups)
	}
	for gi := uint32(0); gi < nGroups; gi++ {
		var g Group
		if g.Layer, err = readString(r); err != nil {
			return nil, err
		}
		if g.Signature, err = readIntSlice(r); err != nil {
			return nil, err
		}
		nT, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if nT > maxElems {
			return nil, fmt.Errorf("checkpoint: implausible tensor count %d", nT)
		}
		for ti := uint32(0); ti < nT; ti++ {
			var t Tensor
			if t.Name, err = readString(r); err != nil {
				return nil, err
			}
			var n int
			if t.Shape, n, err = readShape(r); err != nil {
				return nil, err
			}
			if t.Data, err = readData(r, n, dt); err != nil {
				return nil, err
			}
			g.Tensors = append(g.Tensors, t)
		}
		m.Groups = append(m.Groups, g)
	}
	return m, nil
}

// readData reads n values at the dtype's width. The slice grows as bytes
// actually arrive, so a shape the stream cannot back allocates no more than
// a constant factor of the input before the read fails.
func readData(r io.Reader, n int, dt tensor.DType) ([]float64, error) {
	const chunk = 1 << 13
	width := dt.Size()
	data := make([]float64, 0, min(n, chunk))
	buf := make([]byte, width*min(n, chunk))
	for len(data) < n {
		b := buf[:width*min(n-len(data), chunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		data = appendTensorData(data, b, dt)
	}
	return data, nil
}

// encodeTensorData serializes tensor data at the dtype's native width as raw
// little-endian bytes. An F32 stream stores exactly the float32 bits of each
// value, lossless for f32-trained tensors.
func encodeTensorData(data []float64, dt tensor.DType) []byte {
	if dt == tensor.F32 {
		b := make([]byte, 4*len(data))
		for i, v := range data {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(float32(v)))
		}
		return b
	}
	b := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// appendTensorData decodes b, a whole number of dt-wide values, onto dst.
func appendTensorData(dst []float64, b []byte, dt tensor.DType) []float64 {
	n := len(dst)
	dst = append(dst, make([]float64, len(b)/dt.Size())...)
	data := dst[n:]
	if dt == tensor.F32 {
		for i := range data {
			data[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
		}
		return dst
	}
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}
