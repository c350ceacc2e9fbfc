package checkpoint

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"

	"swtnas/internal/tensor"
)

// HashSize is the truncated SHA-256 width used to content-address tensor
// blobs. 16 bytes (128 bits) keeps manifests small while making an
// accidental collision across a search population astronomically unlikely.
const HashSize = 16

// Hash content-addresses one tensor blob: the truncated SHA-256 of the
// tensor's raw little-endian float64 bytes. Two tensors share a Hash exactly
// when their data is bit-identical, which is what lets a population of
// mutation-related candidates store each shared tensor once.
type Hash [HashSize]byte

// HashBlob hashes raw blob bytes.
func HashBlob(b []byte) Hash {
	sum := sha256.Sum256(b)
	var h Hash
	copy(h[:], sum[:HashSize])
	return h
}

// String renders the hash as lowercase hex (the blob's file stem on disk).
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// encodeTensorBlob serializes tensor data at the dtype's native width as
// raw little-endian bytes — the canonical content the Hash addresses. An
// F32 blob stores exactly the float32 bits of each value (lossless for
// f32-trained tensors), so bit-identical f32 tensors dedup just like f64
// ones; the two widths hash into disjoint blob spaces by construction.
func encodeTensorBlob(data []float64, dt tensor.DType) []byte {
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

// decodeTensorBlob is the inverse of encodeTensorBlob.
func decodeTensorBlob(b []byte, dt tensor.DType) ([]float64, error) {
	w := dt.Size()
	if len(b)%w != 0 {
		return nil, fmt.Errorf("checkpoint: blob length %d is not a multiple of %d", len(b), w)
	}
	return appendTensorBlob(make([]float64, 0, len(b)/w), b, dt), nil
}

// appendTensorBlob decodes b, a whole number of dt-wide values, onto dst.
func appendTensorBlob(dst []float64, b []byte, dt tensor.DType) []float64 {
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

// ManifestTensor references one tensor of a manifest by content hash.
type ManifestTensor struct {
	Name  string
	Shape []int
	Hash  Hash
}

// rawBytes is the tensor's uncompressed blob size under the manifest's
// dtype.
func (t ManifestTensor) rawBytes(dt tensor.DType) int64 {
	return int64(dt.Size() * tensor.Numel(t.Shape))
}

// ManifestGroup mirrors Group with hashes in place of tensor data.
type ManifestGroup struct {
	Layer     string
	Signature []int
	Tensors   []ManifestTensor
}

// Manifest is the content-addressed form of a candidate checkpoint: the
// model's identity plus a layer→hash table. Resolving every hash against a
// blob store reconstructs the Model bit for bit. DType fixes the width of
// every referenced blob (tensor.F32 manifests reference 4-byte-per-element
// blobs); the zero value is tensor.F64, matching pre-dtype manifests.
type Manifest struct {
	Arch   []int
	Score  float64
	DType  tensor.DType
	Groups []ManifestGroup
}

// Hashes returns every blob hash the manifest references, in layer order
// (duplicates preserved).
func (mf *Manifest) Hashes() []Hash {
	var out []Hash
	for _, g := range mf.Groups {
		for _, t := range g.Tensors {
			out = append(out, t.Hash)
		}
	}
	return out
}

// RawBytes is the uncompressed size of every referenced blob — what a full
// (non-deduplicated) checkpoint write would have cost in tensor data.
func (mf *Manifest) RawBytes() int64 {
	var n int64
	for _, g := range mf.Groups {
		for _, t := range g.Tensors {
			n += t.rawBytes(mf.DType)
		}
	}
	return n
}

// ManifestOf splits a model into its manifest and the referenced blobs
// (keyed by hash; bit-identical tensors collapse into one entry).
func ManifestOf(m *Model) (*Manifest, map[Hash][]byte) {
	mf := &Manifest{Arch: append([]int(nil), m.Arch...), Score: m.Score, DType: m.DType}
	blobs := map[Hash][]byte{}
	for _, g := range m.Groups {
		mg := ManifestGroup{Layer: g.Layer, Signature: append([]int(nil), g.Signature...)}
		for _, t := range g.Tensors {
			blob := encodeTensorBlob(t.Data, m.DType)
			h := HashBlob(blob)
			if _, ok := blobs[h]; !ok {
				blobs[h] = blob
			}
			mg.Tensors = append(mg.Tensors, ManifestTensor{
				Name:  t.Name,
				Shape: append([]int(nil), t.Shape...),
				Hash:  h,
			})
		}
		mf.Groups = append(mf.Groups, mg)
	}
	return mf, blobs
}

// Resolve reconstructs the full Model by fetching every referenced blob.
// fetch must return the exact bytes stored under the hash; shapes are
// validated against blob lengths so a wrong or truncated blob cannot build a
// silently corrupt model.
func (mf *Manifest) Resolve(fetch func(Hash) ([]byte, error)) (*Model, error) {
	m := &Model{Arch: append([]int(nil), mf.Arch...), Score: mf.Score, DType: mf.DType}
	for _, g := range mf.Groups {
		mg := Group{Layer: g.Layer, Signature: append([]int(nil), g.Signature...)}
		for _, t := range g.Tensors {
			blob, err := fetch(t.Hash)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: resolving tensor %q (%s): %w", t.Name, t.Hash, err)
			}
			data, err := decodeTensorBlob(blob, mf.DType)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: tensor %q: %w", t.Name, err)
			}
			if want := tensor.Numel(t.Shape); len(data) != want {
				return nil, fmt.Errorf("checkpoint: tensor %q blob holds %d values, shape %s needs %d",
					t.Name, len(data), tensor.ShapeString(t.Shape), want)
			}
			mg.Tensors = append(mg.Tensors, Tensor{
				Name:  t.Name,
				Shape: append([]int(nil), t.Shape...),
				Data:  data,
			})
		}
		m.Groups = append(m.Groups, mg)
	}
	return m, nil
}

const (
	manifestMagic    = "SWTM"
	manifestVersion  = uint32(1)
	manifestVersion2 = uint32(2)
)

// EncodeManifest serializes the manifest ("SWTM" binary format). Manifests
// are a few hundred bytes — the journal's evaluation records carry them, the
// tensor blobs staying in the store. Float64 manifests write the version-1
// layout; a non-default DType writes version 2, which adds the dtype after
// the version field so journal replay resolves blobs at the right width.
func EncodeManifest(mf *Manifest) ([]byte, error) {
	if !mf.DType.Valid() {
		return nil, fmt.Errorf("checkpoint: invalid manifest dtype %d", uint8(mf.DType))
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if _, err := w.WriteString(manifestMagic); err != nil {
		return nil, err
	}
	ver := manifestVersion
	if mf.DType != tensor.F64 {
		ver = manifestVersion2
	}
	if err := writeU32(w, ver); err != nil {
		return nil, err
	}
	if ver == manifestVersion2 {
		if err := writeU32(w, uint32(mf.DType)); err != nil {
			return nil, err
		}
	}
	if err := writeIntSlice(w, mf.Arch); err != nil {
		return nil, err
	}
	if err := binary.Write(w, binary.LittleEndian, math.Float64bits(mf.Score)); err != nil {
		return nil, err
	}
	if err := writeU32(w, uint32(len(mf.Groups))); err != nil {
		return nil, err
	}
	for _, g := range mf.Groups {
		if err := writeString(w, g.Layer); err != nil {
			return nil, err
		}
		if err := writeIntSlice(w, g.Signature); err != nil {
			return nil, err
		}
		if err := writeU32(w, uint32(len(g.Tensors))); err != nil {
			return nil, err
		}
		for _, t := range g.Tensors {
			if err := writeString(w, t.Name); err != nil {
				return nil, err
			}
			if err := writeIntSlice(w, t.Shape); err != nil {
				return nil, err
			}
			if _, err := w.Write(t.Hash[:]); err != nil {
				return nil, err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeManifest parses an encoded manifest, rejecting negative or
// implausibly large tensor shapes.
func DecodeManifest(b []byte) (*Manifest, error) {
	r := bytes.NewReader(b)
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("checkpoint: reading manifest magic: %w", err)
	}
	if string(head) != manifestMagic {
		return nil, fmt.Errorf("checkpoint: bad manifest magic %q", head)
	}
	ver, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if ver != manifestVersion && ver != manifestVersion2 {
		return nil, fmt.Errorf("checkpoint: unsupported manifest version %d", ver)
	}
	mf := &Manifest{}
	if ver == manifestVersion2 {
		if mf.DType, err = readDType(r); err != nil {
			return nil, err
		}
	}
	if mf.Arch, err = readIntSlice(r); err != nil {
		return nil, err
	}
	var bits uint64
	if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
		return nil, err
	}
	mf.Score = math.Float64frombits(bits)
	nGroups, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if nGroups > 1<<16 {
		return nil, fmt.Errorf("checkpoint: implausible manifest group count %d", nGroups)
	}
	for gi := uint32(0); gi < nGroups; gi++ {
		var g ManifestGroup
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
		if nT > 1<<16 {
			return nil, fmt.Errorf("checkpoint: implausible manifest tensor count %d", nT)
		}
		for ti := uint32(0); ti < nT; ti++ {
			var t ManifestTensor
			if t.Name, err = readString(r); err != nil {
				return nil, err
			}
			if t.Shape, _, err = readShape(r); err != nil {
				return nil, err
			}
			if _, err := io.ReadFull(r, t.Hash[:]); err != nil {
				return nil, err
			}
			g.Tensors = append(g.Tensors, t)
		}
		mf.Groups = append(mf.Groups, g)
	}
	return mf, nil
}
