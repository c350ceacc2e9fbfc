package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"swtnas/internal/tensor"
)

// HashSize is the truncated SHA-256 width used to content-address stored
// objects. 16 bytes (128 bits) keeps manifests small while making an
// accidental collision across a search population astronomically unlikely.
const HashSize = 16

// Hash content-addresses one stored object: the truncated SHA-256 of a
// candidate's SWTC stream. Two candidates share a Hash exactly when their
// checkpoints are bit-identical.
type Hash [HashSize]byte

// HashBlob hashes an object's bytes.
func HashBlob(b []byte) Hash {
	sum := sha256.Sum256(b)
	var h Hash
	copy(h[:], sum[:HashSize])
	return h
}

// String renders the hash as lowercase hex (the object's file stem on disk).
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Manifest names a stored candidate checkpoint by content: the hash of its
// SWTC stream, the stream's length, and the dtype it was encoded at (which
// the disk backend's object must hold: its sections are laid out at that
// element width). It is what a journal record carries in place of the
// checkpoint itself.
type Manifest struct {
	hash  Hash
	size  int64
	dtype tensor.DType
}

// The SWTM record: magic, version, dtype, size, hash — a fixed 36 bytes.
// Versions 1 and 2 (a layer→tensor-hash tree over per-tensor blobs) are no
// longer written or read.
const (
	manifestMagic   = "SWTM"
	manifestVersion = uint32(3)
	manifestLen     = 4 + 4 + 4 + 8 + HashSize
)

// EncodeManifest serializes the manifest ("SWTM" binary format).
func EncodeManifest(mf *Manifest) ([]byte, error) {
	if !mf.dtype.Valid() {
		return nil, fmt.Errorf("checkpoint: invalid manifest dtype %d", uint8(mf.dtype))
	}
	if mf.size < 0 {
		return nil, fmt.Errorf("checkpoint: negative manifest size %d", mf.size)
	}
	b := make([]byte, 0, manifestLen)
	b = append(b, manifestMagic...)
	b = binary.LittleEndian.AppendUint32(b, manifestVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(mf.dtype))
	b = binary.LittleEndian.AppendUint64(b, uint64(mf.size))
	return append(b, mf.hash[:]...), nil
}

// DecodeManifest parses an encoded manifest. Anything but the one record
// EncodeManifest writes — another version, an unknown dtype, a size no
// stream can have, missing or trailing bytes — is an error naming what was
// found.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("checkpoint: manifest of %d bytes is too short for a header", len(b))
	}
	if string(b[:4]) != manifestMagic {
		return nil, fmt.Errorf("checkpoint: bad manifest magic %q", b[:4])
	}
	if ver := binary.LittleEndian.Uint32(b[4:]); ver != manifestVersion {
		return nil, fmt.Errorf("checkpoint: unsupported manifest version %d (only version %d is read)", ver, manifestVersion)
	}
	if len(b) != manifestLen {
		return nil, fmt.Errorf("checkpoint: manifest is %d bytes, want %d", len(b), manifestLen)
	}
	dtU := binary.LittleEndian.Uint32(b[8:])
	mf := &Manifest{dtype: tensor.DType(uint8(dtU)), size: int64(binary.LittleEndian.Uint64(b[12:]))}
	if dtU > 0xff || !mf.dtype.Valid() {
		return nil, fmt.Errorf("checkpoint: invalid manifest dtype %d", dtU)
	}
	if mf.size < 0 {
		return nil, fmt.Errorf("checkpoint: implausible manifest size %d", uint64(mf.size))
	}
	copy(mf.hash[:], b[20:])
	return mf, nil
}
