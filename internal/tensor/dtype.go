package tensor

import "fmt"

// Float constrains the element types the training stack instantiates over.
// The set is closed (no approximation terms): every dtype-dispatch type
// switch in the tree — network casting, loss casting, checkpoint encoding —
// relies on float32 and float64 being the only members.
type Float interface {
	float32 | float64
}

// DType names a concrete element width at runtime. It flows from
// SearchOptions through nas.Config, the journal header, RPCTask and the
// checkpoint codec so that every component agrees on the width a model was
// trained in. The zero value is F64, which keeps pre-dtype journals,
// checkpoints and RPC payloads meaning what they always meant.
type DType uint8

const (
	// F64 is the float64 dtype the stack has always used (the zero value).
	F64 DType = iota
	// F32 is the float32 dtype: half the memory bandwidth on the GEMM and
	// convolution hot paths, with checkpoints stored natively at 4
	// bytes/element.
	F32
)

// String returns the canonical spelling ("f64", "f32") used by flags, the
// journal header and error messages.
func (d DType) String() string {
	switch d {
	case F64:
		return "f64"
	case F32:
		return "f32"
	}
	return fmt.Sprintf("dtype(%d)", uint8(d))
}

// Valid reports whether d is a known dtype.
func (d DType) Valid() bool { return d == F64 || d == F32 }

// Size returns the element width in bytes (8 for F64, 4 for F32). It panics
// on invalid dtypes so corrupted checkpoint headers fail loudly.
func (d DType) Size() int {
	switch d {
	case F64:
		return 8
	case F32:
		return 4
	}
	panic(fmt.Sprintf("tensor: invalid dtype %d", uint8(d)))
}

// ParseDType parses a flag/JSON spelling. The empty string means F64 so that
// absent fields (old journals, old option structs) keep their pre-dtype
// meaning; both the short ("f32") and Go ("float32") spellings are accepted.
func ParseDType(s string) (DType, error) {
	switch s {
	case "", "f64", "float64":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	}
	return F64, fmt.Errorf("tensor: unknown dtype %q (want f32 or f64)", s)
}

// DTypeFor returns the DType tag of the instantiation element type.
func DTypeFor[T Float]() DType {
	var z T
	if _, ok := any(z).(float32); ok {
		return F32
	}
	return F64
}
