package tensor

// useAVX2 selects the AVX2 kernels in matmul_amd64.s: the GEMM tiles,
// the transpose and the add. It is read from the CPU once, at package
// init; tests clear it to run the Go kernels on an AVX2 host.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state
// across context switches: CPUID leaf 1 OSXSAVE and AVX, XCR0 bits 1-2
// (SSE and AVX state enabled), and CPUID leaf 7 AVX2.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// axpyTile2x32 adds kn k of Â·B into a 2-row × 32-column tile of C; see
// matmul_amd64.s for the arguments and axpyTiles for the caller.
//
//go:noescape
func axpyTile2x32(c0, c1, b, x0, x1 *float32, ldb, ldx, kn int)

// axpyTile2x8 is axpyTile2x32 on a 2-row × 8-column tile.
//
//go:noescape
func axpyTile2x8(c0, c1, b, x0, x1 *float32, ldb, ldx, kn int)

// transpose8 transposes the first kn columns of eight B rows into kn
// rows of bt; see matmul_amd64.s and transposeInto for the caller.
//
//go:noescape
func transpose8(bt, b *float32, ldt, ldb, kn int)

// addTo adds n elements of src into dst; see matmul_amd64.s and
// addShifted for the caller.
//
//go:noescape
func addTo(dst, src *float32, n int)
