package tensor

import "fmt"

// MatMulInto computes dst = x·w for x [B, K], w [K, N], dst [B, N]. When
// bias is non-nil it must have length N and initializes every output row;
// otherwise rows start at zero. It is a shape-checked wrapper over the
// blocked Gemm kernel: rows are processed in parallel shards with the
// reduction tiled over K in ascending order, so results are identical for
// any worker count. Every operand is multiplied at either width — a zero
// input does not skip its weight row — so 0·Inf is NaN.
func MatMulInto[T Float](dst, x, w *TensorOf[T], bias []T) error {
	if len(x.Shape) != 2 || len(w.Shape) != 2 || len(dst.Shape) != 2 {
		return fmt.Errorf("tensor: matmul wants rank-2 operands, got dst %s x %s w %s",
			ShapeString(dst.Shape), ShapeString(x.Shape), ShapeString(w.Shape))
	}
	b, k := x.Shape[0], x.Shape[1]
	n := w.Shape[1]
	if w.Shape[0] != k || dst.Shape[0] != b || dst.Shape[1] != n {
		return fmt.Errorf("tensor: matmul shape mismatch: dst %s = x %s · w %s",
			ShapeString(dst.Shape), ShapeString(x.Shape), ShapeString(w.Shape))
	}
	if bias != nil && len(bias) != n {
		return fmt.Errorf("tensor: matmul bias length %d, want %d", len(bias), n)
	}
	Gemm(dst.Data, x.Data, w.Data, b, k, n, bias)
	return nil
}

// MatMulTInto computes dst = x·wᵀ for x [B, N], w [K, N], dst [B, K] — the
// input-gradient product of a dense layer (dIn = dOut·Wᵀ). It is a
// shape-checked wrapper over the blocked GemmBT kernel; rows are processed
// in parallel batch shards with serial-identical arithmetic.
func MatMulTInto[T Float](dst, x, w *TensorOf[T]) error {
	if len(x.Shape) != 2 || len(w.Shape) != 2 || len(dst.Shape) != 2 {
		return fmt.Errorf("tensor: matmulT wants rank-2 operands, got dst %s x %s w %s",
			ShapeString(dst.Shape), ShapeString(x.Shape), ShapeString(w.Shape))
	}
	b, n := x.Shape[0], x.Shape[1]
	k := w.Shape[0]
	if w.Shape[1] != n || dst.Shape[0] != b || dst.Shape[1] != k {
		return fmt.Errorf("tensor: matmulT shape mismatch: dst %s = x %s · wᵀ %s",
			ShapeString(dst.Shape), ShapeString(x.Shape), ShapeString(w.Shape))
	}
	GemmBT(dst.Data, x.Data, w.Data, b, n, k)
	return nil
}
