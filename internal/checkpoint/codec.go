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
			if m.DType == tensor.F32 {
				for _, v := range t.Data {
					if err := binary.Write(w, binary.LittleEndian, math.Float32bits(float32(v))); err != nil {
						return err
					}
				}
			} else {
				for _, v := range t.Data {
					if err := binary.Write(w, binary.LittleEndian, math.Float64bits(v)); err != nil {
						return err
					}
				}
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
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", head)
	}
	ver, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("checkpoint: unsupported SWTC version %d (only version %d is read)", ver, version)
	}
	dt, err := readDType(br)
	if err != nil {
		return nil, err
	}
	reserved, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if reserved != 0 {
		return nil, fmt.Errorf("checkpoint: unsupported SWTC encoding %d (only native-width streams are read)", reserved)
	}
	m, err := readBody(br, dt)
	if err != nil {
		return nil, err
	}
	m.DType = dt
	return m, nil
}

// readDType reads and validates a dtype header word (SWTC and SWTM v2).
func readDType(r io.Reader) (tensor.DType, error) {
	dtU, err := readU32(r)
	if err != nil {
		return 0, err
	}
	dt := tensor.DType(uint8(dtU))
	if dtU > 0xff || !dt.Valid() {
		return 0, fmt.Errorf("checkpoint: invalid dtype %d", dtU)
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
		data = appendTensorBlob(data, b, dt)
	}
	return data, nil
}
