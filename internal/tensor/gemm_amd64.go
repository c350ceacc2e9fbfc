//go:build !purego

package tensor

// Tile kernels behind the products (gemm_amd64.s). Each product makes one
// assembly call per row shard and reduction tile; the loops over rows,
// columns and the reduction index run inside the call. Packed multiplies and
// adds round each lane exactly like the scalar ops, and no kernel fuses
// them, so the kernels are bit-identical to the Go definitions in gemm.go
// and gemm_f32.go — pinned by TestF64KernelsMatchGoTwins,
// TestF32KernelsMatchGoTwins, the two shape sweeps and the tile ladders. The
// kernels are AVX2; whether they may run is decided once, below, and where
// they may not the products run the Go definitions, as under the purego
// build tag.

// gemmVectorBytes is the vector width of the bodies the products run: 32
// when the CPU has AVX2 and the OS saves the YMM state, 8 (one float64: the
// Go definitions) otherwise. It is set once, here; only a _test.go file
// writes it again, to run the Go definitions on an AVX2 host.
var gemmVectorBytes = func() int {
	if detectAVX2(cpuid, xgetbv) {
		return 32
	}
	return 8
}()

// cpuid executes CPUID with EAX = leaf and ECX = sub; xgetbv reads XCR0 and
// faults unless CPUID.1:ECX.OSXSAVE is set.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// detectAVX2 asks the two instructions whether the 32-byte bodies may run,
// reading XCR0 only once CPUID has said the instruction exists.
func detectAVX2(cpuid func(leaf, sub uint32) (eax, ebx, ecx, edx uint32), xgetbv func() (eax, edx uint32)) bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	var xcr0 uint32
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	return avx2Usable(ecx1, ebx7, xcr0)
}

const (
	cpuidOSXSAVE = 1 << 27 // CPUID.1:ECX — the OS has enabled XGETBV/XSAVE
	cpuidAVX     = 1 << 28 // CPUID.1:ECX
	cpuidAVX2    = 1 << 5  // CPUID.7.0:EBX
	xcr0YMM      = 0b110   // XCR0 bits 1 and 2: the OS saves XMM and YMM state
)

// avx2Usable is the decision itself: the CPU has the instructions *and* the
// OS (or hypervisor) preserves the registers they use. A guest whose XCR0
// masks the YMM state advertises AVX2 in leaf 7 all the same, and a VEX-256
// instruction there is a SIGILL.
func avx2Usable(cpuid1ECX, cpuid7EBX, xcr0 uint32) bool {
	return cpuid1ECX&cpuidOSXSAVE != 0 && cpuid1ECX&cpuidAVX != 0 &&
		cpuid7EBX&cpuidAVX2 != 0 && xcr0&xcr0YMM == xcr0YMM
}

// gemmTileF32AVX2 computes, for r < rows and j < n,
//
//	dst[r*n+j] = init[r*initStride+j] + Σ_t a[r*ars+rowAt[r]+groups[t/tw]+(t%tw)*ats]·b[t*n+j]
//
// with the sum taken t-ascending from 0 to kc-1, one multiply and one add
// per term: the tile of gemm.go, whose Go definition is gemmTileGo. A nil
// init starts every element at +0, and a nil rowAt adds 0 to every row. kc
// is a multiple of tw ≥ 1, and groups holds kc/tw offsets, one at least.
// Every kernel below is callable only where gemmVectorBytes is 32.
//
//go:noescape
func gemmTileF32AVX2(dst, init *float32, initStride int, a *float32, ars int, rowAt *int, ats, tw int, groups *int, b *float32, rows, kc, n int)

// gemmTileF64AVX2 is gemmTileF32AVX2 on float64: the same body assembled
// with the packed-double instructions.
//
//go:noescape
func gemmTileF64AVX2(dst, init *float64, initStride int, a *float64, ars int, rowAt *int, ats, tw int, groups *int, b *float64, rows, kc, n int)

// gemmBTTileF32AVX2 computes dst[r*ldd+c] = a[r*n:(r+1)*n] · b[c*n:(c+1)*n]
// for r < rows and c < cols, every dot product in the lane order of dot4Go,
// two dots per register.
//
//go:noescape
func gemmBTTileF32AVX2(dst *float32, ldd int, a, b *float32, rows, cols, n int)

// gemmBTTileF64AVX2 computes the same block with every dot product one
// j-ascending sum from +0, the order of gemmBT2x4, four outputs per
// register (the walk over the output blocks is gemm_bt_f64_amd64.h). It
// needs rows ≥ 4, cols ≥ 4 and n ≥ 1.
//
//go:noescape
func gemmBTTileF64AVX2(dst *float64, ldd int, a, b *float64, rows, cols, n int)

// tileBody runs one checked gemmTile call on the AVX2 kernel of T's width
// where gemmVectorBytes is 32, and otherwise reports false, having run
// nothing.
func tileBody[T Float](dst, init *T, initStride int, a *T, ars int, rowAt *int, ats, tw int, groups *int, b *T, rows, kc, n int) bool {
	if gemmVectorBytes != 32 {
		return false
	}
	switch d := any(dst).(type) {
	case *float32:
		gemmTileF32AVX2(d, any(init).(*float32), initStride, any(a).(*float32), ars, rowAt, ats, tw, groups, any(b).(*float32), rows, kc, n)
	case *float64:
		gemmTileF64AVX2(d, any(init).(*float64), initStride, any(a).(*float64), ars, rowAt, ats, tw, groups, any(b).(*float64), rows, kc, n)
	}
	return true
}

// The GemmBT wrappers run the Go loops unless gemmVectorBytes is 32;
// otherwise they do the one bounds check per operand that lets the kernels
// run unchecked, then walk the reduction tiles in ascending order.

func gemmBTRowsF32(dst, a, b []float32, lo, hi, n, k int) {
	if gemmVectorBytes != 32 || n == 0 {
		gemmBTRowsGo(dst, a, b, lo, hi, n, k)
		return
	}
	if lo >= hi || k == 0 {
		return
	}
	d, ar, br := dst[lo*k:hi*k], a[lo*n:hi*n], b[:k*n]
	for k0 := 0; k0 < k; k0 += gemmKBlock {
		gemmBTTileF32AVX2(&d[k0], k, &ar[0], &br[k0*n], hi-lo, min(gemmKBlock, k-k0), n)
	}
}

func gemmBTRowsF64(dst, a, b []float64, lo, hi, n, k int) {
	if gemmVectorBytes != 32 || hi-lo < 4 || k < 4 || n == 0 {
		gemmBTRowsGoF64(dst, a, b, lo, hi, n, k)
		return
	}
	d, ar, br := dst[lo*k:hi*k], a[lo*n:hi*n], b[:k*n]
	for k0 := 0; k0 < k; {
		// The kernel needs four columns, so a remainder of one to three
		// rides with the last full tile.
		kc := k - k0
		if kc >= gemmKBlock+4 {
			kc = gemmKBlock
		}
		gemmBTTileF64AVX2(&d[k0], k, &ar[0], &br[k0*n], hi-lo, kc, n)
		k0 += kc
	}
}
