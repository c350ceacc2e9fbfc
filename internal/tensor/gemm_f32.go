package tensor

// The float32 GemmBT. Gemm, GemmAT and GemmStrided take every element's
// terms in the same order at both widths (gemm.go); GemmBT's f32 dot
// products have their own, SIMD-friendly order instead of the f64 loops'
// j-ascending one: each is a 4-lane strided partial sum — lane l
// accumulates elements j≡l (mod 4) in ascending j from +0 — reduced as
// (s0+s2)+(s1+s3), then the tail elements (j ≥ len&^3) are added in
// ascending order. That is allowed because the determinism contract is per
// dtype.
//
// This file is the definition: the loop over rows and columns and the two
// order-explicit dot products under it. On an amd64 host with AVX2 the
// product runs as gemmBTTileF32AVX2 instead (gemm_amd64.s), bit-identical
// to these loops (pinned by TestGemmF32ShapeSweep and
// TestF32KernelsMatchGoTwins on every body the host runs). Either way the
// arithmetic of an element is a pure function of its position — never of
// worker count or of which rows share a tile — so serial and parallel runs
// agree bit for bit (TestGemmParallelMatchesSerialF32). Kept branch-free:
// do not "optimize" the accumulation sequence here without changing the
// assembly in lockstep.

// gemmBTRowsGo computes rows [lo, hi) of dst = a·bᵀ in float32: each
// output element is one dot4Go/dot1Go dot product (the two share one lane
// order), chosen by the global tile grid.
func gemmBTRowsGo(dst, a, b []float32, lo, hi, n, k int) {
	for k0 := 0; k0 < k; k0 += gemmKBlock {
		k1 := k0 + gemmKBlock
		if k1 > k {
			k1 = k
		}
		for i := lo; i < hi; i++ {
			ai := a[i*n : (i+1)*n]
			oi := dst[i*k : (i+1)*k]
			kk := k0
			for ; kk+4 <= k1; kk += 4 {
				oi[kk], oi[kk+1], oi[kk+2], oi[kk+3] = dot4Go(ai,
					b[(kk+0)*n:(kk+1)*n], b[(kk+1)*n:(kk+2)*n],
					b[(kk+2)*n:(kk+3)*n], b[(kk+3)*n:(kk+4)*n])
			}
			for ; kk < k1; kk++ {
				oi[kk] = dot1Go(ai, b[kk*n:(kk+1)*n])
			}
		}
	}
}

// dot4Go returns four dot products, each a 4-lane strided partial sum
// reduced as (s0+s2)+(s1+s3), tail elements appended in ascending order.
func dot4Go(a, b0, b1, b2, b3 []float32) (float32, float32, float32, float32) {
	var p0, p1, p2, p3 [4]float32
	j4 := len(a) &^ 3
	for j := 0; j < j4; j += 4 {
		for l := 0; l < 4; l++ {
			av := a[j+l]
			p0[l] += float32(av * b0[j+l])
			p1[l] += float32(av * b1[j+l])
			p2[l] += float32(av * b2[j+l])
			p3[l] += float32(av * b3[j+l])
		}
	}
	d0 := (p0[0] + p0[2]) + (p0[1] + p0[3])
	d1 := (p1[0] + p1[2]) + (p1[1] + p1[3])
	d2 := (p2[0] + p2[2]) + (p2[1] + p2[3])
	d3 := (p3[0] + p3[2]) + (p3[1] + p3[3])
	for j := j4; j < len(a); j++ {
		av := a[j]
		d0 += float32(av * b0[j])
		d1 += float32(av * b1[j])
		d2 += float32(av * b2[j])
		d3 += float32(av * b3[j])
	}
	return d0, d1, d2, d3
}

// dot1Go is one dot product with the same lane structure as one dot4Go
// output. A column lands in dot1 only as a tile remainder — a
// property of the global tile grid, identical on every worker count — so
// sharing the structure is about reusing the rounding analysis, not a
// determinism requirement.
func dot1Go(a, b []float32) float32 {
	var p [4]float32
	j4 := len(a) &^ 3
	for j := 0; j < j4; j += 4 {
		p[0] += float32(a[j] * b[j])
		p[1] += float32(a[j+1] * b[j+1])
		p[2] += float32(a[j+2] * b[j+2])
		p[3] += float32(a[j+3] * b[j+3])
	}
	d := (p[0] + p[2]) + (p[1] + p[3])
	for j := j4; j < len(a); j++ {
		d += float32(a[j] * b[j])
	}
	return d
}
