package tensor

// Float32 kernel specialization. The 2×4 micro-kernels in gemm.go are
// scalar, and scalar multiply-adds cost the same at either width on amd64 —
// so a float32 copy of the float64 loops would move half the bytes but
// clear barely any extra throughput. The f32 path instead pins a
// SIMD-friendly per-element accumulation order for each product and lets
// each build reach it the fastest way it can:
//
//   - Gemm: dst[i][j] starts at bias[j] (or +0) and takes a[i][kk]·b[kk][j]
//     for kk ascending, one IEEE rounding per multiply and per add — the
//     same per-element sequence as the scalar path and the naive triple
//     loop.
//   - GemmAT: dst[kk][j] takes a[mm][kk]·b[mm][j] for mm ascending, matching
//     the serial sample-major loop.
//   - GemmBT: each dot product is a 4-lane strided partial sum — lane l
//     accumulates elements j≡l (mod 4) in ascending j from +0 — reduced as
//     (s0+s2)+(s1+s3), then the tail elements (j ≥ len&^3) are added in
//     ascending order. GemmBT's f32 dot products therefore have a
//     *different* (but equally pinned) accumulation order than the f64
//     scalar kernel — allowed, because the determinism contract is per
//     dtype.
//
// This file is the definition: plain Go loops over the four order-explicit
// primitives at the bottom. On an amd64 host with AVX2 the products run as
// tile kernels instead (gemm_amd64.s): one assembly call per row shard and
// reduction tile, the output tile held in registers across the whole tile.
// A packed multiply or add rounds each lane exactly like MULSS/ADDSS, no
// kernel fuses them and Go never does on amd64, so the assembly is
// bit-identical to these loops (pinned by TestGemmF32ShapeSweep and
// TestF32KernelsMatchGoTwins on every body the host runs). Other
// GOARCHes, and amd64 under the purego build tag, run the loops directly
// (gemm_noasm.go). Either way the arithmetic of an element is a pure
// function of its position — never of worker count or of which rows share
// a tile — so serial and parallel runs agree bit for bit
// (TestGemmParallelMatchesSerialF32).
//
// No path skips zero operands, at either width: a branch per element
// breaks the SIMD pipeline, and a skip taken on some rows of a shard and
// not on others makes the result depend on the sharding whenever an
// operand is not finite. Zero-skipping was never part of the numeric
// contract (0·b adds a signed zero), only a scalar-era speedup; without it
// 0·Inf is NaN as IEEE says.

// gemmRowsGo computes rows [lo, hi) of dst = a·b (+bias) in float32,
// K-tiled like the generic path with axpy4Go inside each tile.
func gemmRowsGo(dst, a, b []float32, lo, hi, k, n int, bias []float32) {
	gemmInitRows(dst, lo, hi, n, bias)
	for k0 := 0; k0 < k; k0 += gemmKBlock {
		k1 := k0 + gemmKBlock
		if k1 > k {
			k1 = k
		}
		for i := lo; i < hi; i++ {
			ai := a[i*k : (i+1)*k]
			oi := dst[i*n : (i+1)*n]
			kk := k0
			for ; kk+4 <= k1; kk += 4 {
				axpy4Go(oi,
					b[(kk+0)*n:(kk+1)*n], b[(kk+1)*n:(kk+2)*n],
					b[(kk+2)*n:(kk+3)*n], b[(kk+3)*n:(kk+4)*n],
					ai[kk], ai[kk+1], ai[kk+2], ai[kk+3])
			}
			for ; kk < k1; kk++ {
				axpy1Go(oi, b[kk*n:(kk+1)*n], ai[kk])
			}
		}
	}
}

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

// gemmATRowsGo accumulates rows [lo, hi) of dst += aᵀ·b in float32,
// m-tiled with axpy4Go over groups of four samples (mm ascending, the
// contract order for weight gradients).
func gemmATRowsGo(dst, a, b []float32, lo, hi, m, k, n int) {
	for m0 := 0; m0 < m; m0 += gemmMBlock {
		m1 := m0 + gemmMBlock
		if m1 > m {
			m1 = m
		}
		for kk := lo; kk < hi; kk++ {
			oi := dst[kk*n : (kk+1)*n]
			mm := m0
			for ; mm+4 <= m1; mm += 4 {
				axpy4Go(oi,
					b[(mm+0)*n:(mm+1)*n], b[(mm+1)*n:(mm+2)*n],
					b[(mm+2)*n:(mm+3)*n], b[(mm+3)*n:(mm+4)*n],
					a[(mm+0)*k+kk], a[(mm+1)*k+kk], a[(mm+2)*k+kk], a[(mm+3)*k+kk])
			}
			for ; mm < m1; mm++ {
				axpy1Go(oi, b[mm*n:(mm+1)*n], a[mm*k+kk])
			}
		}
	}
}

// The order-explicit primitives under the loops above. Kept branch-free —
// do not "optimize" the accumulation sequence here without changing the
// assembly in lockstep.

// axpy4Go adds four scaled rows into dst, terms left to right per element.
func axpy4Go(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	for j := range dst {
		v := dst[j]
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		dst[j] = v
	}
}

// axpy1Go computes dst[j] += a·b[j].
func axpy1Go(dst, b []float32, a float32) {
	for j := range dst {
		dst[j] += a * b[j]
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
			p0[l] += av * b0[j+l]
			p1[l] += av * b1[j+l]
			p2[l] += av * b2[j+l]
			p3[l] += av * b3[j+l]
		}
	}
	d0 := (p0[0] + p0[2]) + (p0[1] + p0[3])
	d1 := (p1[0] + p1[2]) + (p1[1] + p1[3])
	d2 := (p2[0] + p2[2]) + (p2[1] + p2[3])
	d3 := (p3[0] + p3[2]) + (p3[1] + p3[3])
	for j := j4; j < len(a); j++ {
		av := a[j]
		d0 += av * b0[j]
		d1 += av * b1[j]
		d2 += av * b2[j]
		d3 += av * b3[j]
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
		p[0] += a[j] * b[j]
		p[1] += a[j+1] * b[j+1]
		p[2] += a[j+2] * b[j+2]
		p[3] += a[j+3] * b[j+3]
	}
	d := (p[0] + p[2]) + (p[1] + p[3])
	for j := j4; j < len(a); j++ {
		d += a[j] * b[j]
	}
	return d
}
