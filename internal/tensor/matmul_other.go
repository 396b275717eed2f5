//go:build !amd64

package tensor

// useAVX2 is false off amd64, so every GEMM runs the scalar kernels and
// the tile kernels below are never called.
var useAVX2 = false

func axpyTile2x32(c0, c1, b, x0, x1 *float32, ldb, ldx, kn int) {
	panic("tensor: no vector tile kernel on this architecture")
}

func axpyTile2x8(c0, c1, b, x0, x1 *float32, ldb, ldx, kn int) {
	panic("tensor: no vector tile kernel on this architecture")
}
