//go:build !amd64

package tensor

// useAVX2 is false off amd64, so every GEMM, transpose and add runs the
// Go kernels and the assembly stand-ins below are never called.
var useAVX2 = false

func axpyTile2x32(c0, c1, b, x0, x1 *float32, ldb, ldx, kn int) {
	panic("tensor: no vector tile kernel on this architecture")
}

func axpyTile2x8(c0, c1, b, x0, x1 *float32, ldb, ldx, kn int) {
	panic("tensor: no vector tile kernel on this architecture")
}

func transpose8(bt, b *float32, ldt, ldb, kn int) {
	panic("tensor: no vector transpose kernel on this architecture")
}

func addTo(dst, src *float32, n int) {
	panic("tensor: no vector add kernel on this architecture")
}
