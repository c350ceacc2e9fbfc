//go:build !purego

package tensor

// Vector bodies of MaxPoolRow (pool_amd64.s): one AVX2 text, assembled at
// each element width and run where the products run theirs
// (gemmVectorBytes is 32). A body covers the first cv channels of every
// pixel of the row, cv a multiple of the lanes of a 16-byte vector; the
// wrapper in pool.go runs the rest through maxPoolRowGo.

// maxPoolRowF32AVX2 runs MaxPoolRow over channels [0, cv) of each of the
// outW pixels of a row, with x pointing at element 0 of the sample's map
// and the taps, the indices and the outputs as MaxPoolRow has them
// (pool_amd64.h).
//
//go:noescape
func maxPoolRowF32AVX2(dst *float32, arg *int32, x *float32, at, cv, ch, inRow, kh, kw, stride, outW int)

//go:noescape
func maxPoolRowF64AVX2(dst *float64, arg *int32, x *float64, at, cv, ch, inRow, kh, kw, stride, outW int)

// poolConsts are the rows the bodies read, 32 bytes each: −Inf in every
// float32 lane, the lane numbers 0–7 as int32, −Inf in every float64 lane,
// the lane numbers 0–3 as int64 (pool_amd64.s names them).
var poolConsts = [4][4]uint64{
	{0xff800000_ff800000, 0xff800000_ff800000, 0xff800000_ff800000, 0xff800000_ff800000},
	{1<<32 | 0, 3<<32 | 2, 5<<32 | 4, 7<<32 | 6},
	{0xfff00000_00000000, 0xfff00000_00000000, 0xfff00000_00000000, 0xfff00000_00000000},
	{0, 1, 2, 3},
}

// maxPoolBody runs one checked MaxPoolRow call's whole 16- and 32-byte
// channel vectors on the body of T's width where gemmVectorBytes is 32,
// and returns how many channels of each pixel it covered.
func maxPoolBody[T Float](dst []T, arg []int32, x []T, at, ch, inRow, kh, kw, stride int) int {
	if gemmVectorBytes != 32 {
		return 0
	}
	switch d := any(dst).(type) {
	case []float32:
		cv := ch &^ 3
		if cv > 0 {
			maxPoolRowF32AVX2(&d[0], &arg[0], &any(x).([]float32)[0], at, cv, ch, inRow, kh, kw, stride, len(d)/ch)
		}
		return cv
	case []float64:
		cv := ch &^ 1
		if cv > 0 {
			maxPoolRowF64AVX2(&d[0], &arg[0], &any(x).([]float64)[0], at, cv, ch, inRow, kh, kw, stride, len(d)/ch)
		}
		return cv
	}
	return 0
}
