package tensor

import (
	"fmt"
	"math"
)

// MaxPoolRow writes one output row of a max-pool over one sample's
// channels-last map x: ch channels a pixel, inRow elements a map row, a
// kh × kw window moved by stride, and the row's first window starting at
// element at. For output pixel ox and channel c, dst[ox·ch+c] is the
// largest of the taps x[i], i = at + ox·stride·ch + ky·inRow + kx·ch + c,
// taken from −Inf in (ky, kx) order with a strict >, and arg[ox·ch+c] is
// the i of the tap it came from: the first of equal taps (+0 after −0
// keeps −0), and the window's first tap where none beats −Inf (all NaN or
// −Inf). len(dst) is a multiple of ch, arg is at least as long, and x is
// at most math.MaxInt32 elements, so every i fits an int32.
//
// maxPoolRowGo is the definition. On amd64, where the products run their
// AVX2 bodies, the whole 16- and 32-byte vectors of each pixel's channels
// run as one AVX2 body per dtype (pool_amd64.h) and the remaining channels
// through maxPoolRowGo; TestMaxPoolRowMatchesGo and FuzzMaxPoolRow hold the
// body to it bit for bit.
func MaxPoolRow[T Float](dst []T, arg []int32, x []T, at, ch, inRow, kh, kw, stride int) {
	if at < 0 || ch < 1 || kh < 1 || kw < 1 || stride < 1 || inRow < 0 || len(dst)%ch != 0 || len(x) > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: MaxPoolRow of %d outputs over %d elements from %d: ch %d, inRow %d, window %d×%d, stride %d",
			len(dst), len(x), at, ch, inRow, kh, kw, stride))
	}
	if len(dst) == 0 {
		return
	}
	arg = arg[:len(dst)]
	x = x[:at+(len(dst)/ch-1)*stride*ch+(kh-1)*inRow+kw*ch] // one past the last tap
	c := maxPoolBody(dst, arg, x, at, ch, inRow, kh, kw, stride)
	maxPoolRowGo(dst, arg, x, at, c, ch, inRow, kh, kw, stride)
}

// maxPoolRowGo is the definition of MaxPoolRow over channels [c0, ch) of
// every pixel: tap-outer, channel-inner, every channel starting at −Inf and
// the window's first tap.
func maxPoolRowGo[T Float](dst []T, arg []int32, x []T, at, c0, ch, inRow, kh, kw, stride int) {
	if c0 >= ch {
		return
	}
	for o := 0; o < len(dst); o, at = o+ch, at+stride*ch {
		best, idx := dst[o+c0:o+ch], arg[o+c0:o+ch]
		for c := range best {
			best[c], idx[c] = T(math.Inf(-1)), int32(at+c0+c)
		}
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				tap := at + ky*inRow + kx*ch + c0
				for c, v := range x[tap : tap+len(best)] {
					if v > best[c] {
						best[c], idx[c] = v, int32(tap+c)
					}
				}
			}
		}
	}
}
