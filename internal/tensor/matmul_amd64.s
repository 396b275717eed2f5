#include "textflag.h"

// Three AVX2 kernels: the GEMM tiles (axpyTile2x32, axpyTile2x8), the
// 8x8 transpose of A·Bᵀ's B operand (transpose8) and col2im's add
// (addTo). Each is bit-identical to the Go kernel it stands in for.
//
// The tile kernels add kn consecutive k of Â·B into a tile of two C rows
// held in YMM registers. For each k, in ascending order, every lane
// takes c = c + x*b as a rounded VMULPS and then a rounded VADDPS: the
// same two rounded steps as the scalar `s += x*b`. A fused multiply-add
// would skip the product's rounding, so none is used.
//
// Arguments: c0 and c1 point at the tile's first column in the two C
// rows; b points at the first k's row segment of B, ldb elements apart
// per k; x0 and x1 point at the two rows' coefficients for the first k,
// ldx elements apart per k. The Go caller has checked every element
// the kernel touches; kn >= 1.
//
// Registers: Y0-Y7 (2x32) or Y0-Y1 (2x8) hold the C tile, Y8/Y9 the two
// broadcast coefficients, Y10-Y13 a B row segment, Y14/Y15 products.
// The k loop runs four k per pass, then one k at a time.

// STEP32 adds one k to the 2x32 tile from B vectors b0..b3 and the
// coefficients at xa (row 0) and xb (row 1).
#define STEP32(b0, b1, b2, b3, xa, xb) \
	VBROADCASTSS xa, Y8;        \
	VBROADCASTSS xb, Y9;        \
	VMOVUPS      b0, Y10;       \
	VMOVUPS      b1, Y11;       \
	VMOVUPS      b2, Y12;       \
	VMOVUPS      b3, Y13;       \
	VMULPS       Y10, Y8, Y14;  \
	VADDPS       Y14, Y0, Y0;   \
	VMULPS       Y10, Y9, Y15;  \
	VADDPS       Y15, Y4, Y4;   \
	VMULPS       Y11, Y8, Y14;  \
	VADDPS       Y14, Y1, Y1;   \
	VMULPS       Y11, Y9, Y15;  \
	VADDPS       Y15, Y5, Y5;   \
	VMULPS       Y12, Y8, Y14;  \
	VADDPS       Y14, Y2, Y2;   \
	VMULPS       Y12, Y9, Y15;  \
	VADDPS       Y15, Y6, Y6;   \
	VMULPS       Y13, Y8, Y14;  \
	VADDPS       Y14, Y3, Y3;   \
	VMULPS       Y13, Y9, Y15;  \
	VADDPS       Y15, Y7, Y7

// STEP8 adds one k to the 2x8 tile from the B vector b0 and the
// coefficients at xa and xb.
#define STEP8(b0, xa, xb) \
	VBROADCASTSS xa, Y8;       \
	VBROADCASTSS xb, Y9;       \
	VMOVUPS      b0, Y10;      \
	VMULPS       Y10, Y8, Y14; \
	VADDPS       Y14, Y0, Y0;  \
	VMULPS       Y10, Y9, Y15; \
	VADDPS       Y15, Y1, Y1

// func axpyTile2x32(c0, c1, b, x0, x1 *float32, ldb, ldx, kn int)
TEXT ·axpyTile2x32(SB), NOSPLIT, $0-64
	MOVQ c0+0(FP), DI
	MOVQ c1+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ x0+24(FP), R8
	MOVQ x1+32(FP), R9
	MOVQ ldb+40(FP), R10
	MOVQ ldx+48(FP), R11
	MOVQ kn+56(FP), CX
	SHLQ $2, R10            // strides in bytes
	SHLQ $2, R11
	LEAQ (R10)(R10*2), R12  // three strides, for the fourth k of a pass
	LEAQ (R11)(R11*2), R13
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	CMPQ    CX, $4
	JLT     tail32

loop32:
	STEP32((BX), 32(BX), 64(BX), 96(BX), (R8), (R9))
	STEP32((BX)(R10*1), 32(BX)(R10*1), 64(BX)(R10*1), 96(BX)(R10*1), (R8)(R11*1), (R9)(R11*1))
	STEP32((BX)(R10*2), 32(BX)(R10*2), 64(BX)(R10*2), 96(BX)(R10*2), (R8)(R11*2), (R9)(R11*2))
	STEP32((BX)(R12*1), 32(BX)(R12*1), 64(BX)(R12*1), 96(BX)(R12*1), (R8)(R13*1), (R9)(R13*1))
	LEAQ    (BX)(R10*4), BX
	LEAQ    (R8)(R11*4), R8
	LEAQ    (R9)(R11*4), R9
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     loop32

tail32:
	TESTQ   CX, CX
	JZ      done32
	STEP32((BX), 32(BX), 64(BX), 96(BX), (R8), (R9))
	ADDQ    R10, BX
	ADDQ    R11, R8
	ADDQ    R11, R9
	DECQ    CX
	JMP     tail32

done32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, (SI)
	VMOVUPS Y5, 32(SI)
	VMOVUPS Y6, 64(SI)
	VMOVUPS Y7, 96(SI)
	VZEROUPPER
	RET

// func axpyTile2x8(c0, c1, b, x0, x1 *float32, ldb, ldx, kn int)
TEXT ·axpyTile2x8(SB), NOSPLIT, $0-64
	MOVQ c0+0(FP), DI
	MOVQ c1+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ x0+24(FP), R8
	MOVQ x1+32(FP), R9
	MOVQ ldb+40(FP), R10
	MOVQ ldx+48(FP), R11
	MOVQ kn+56(FP), CX
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R10)(R10*2), R12
	LEAQ (R11)(R11*2), R13
	VMOVUPS (DI), Y0
	VMOVUPS (SI), Y1
	CMPQ    CX, $4
	JLT     tail8

loop8:
	STEP8((BX), (R8), (R9))
	STEP8((BX)(R10*1), (R8)(R11*1), (R9)(R11*1))
	STEP8((BX)(R10*2), (R8)(R11*2), (R9)(R11*2))
	STEP8((BX)(R12*1), (R8)(R13*1), (R9)(R13*1))
	LEAQ    (BX)(R10*4), BX
	LEAQ    (R8)(R11*4), R8
	LEAQ    (R9)(R11*4), R9
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     loop8

tail8:
	TESTQ   CX, CX
	JZ      done8
	STEP8((BX), (R8), (R9))
	ADDQ    R10, BX
	ADDQ    R11, R8
	ADDQ    R11, R9
	DECQ    CX
	JMP     tail8

done8:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (SI)
	VZEROUPPER
	RET

// transpose8 writes the kn columns of eight B rows, ldb elements apart,
// into kn rows of bt, ldt elements apart, eight contiguous elements per
// row: bt[p*ldt+r] = b[r*ldb+p] for r < 8 and p < kn. It moves one 8x8
// block per pass (eight loads, an unpack, shuffle and 128-bit lane
// permute network, eight stores), only moving bits. kn is a positive
// multiple of 8, and the Go caller has checked the last element read
// and written.
//
// func transpose8(bt, b *float32, ldt, ldb, kn int)
TEXT ·transpose8(SB), NOSPLIT, $0-40
	MOVQ bt+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldt+16(FP), R8
	MOVQ ldb+24(FP), R10
	MOVQ kn+32(FP), CX
	SHLQ $2, R8             // strides in bytes
	SHLQ $2, R10
	LEAQ (R8)(R8*2), R9     // 3, 5 and 7 strides of bt
	LEAQ (R8)(R8*4), R14
	LEAQ (R9)(R8*4), DX
	LEAQ (R10)(R10*2), R11  // 3, 5 and 7 strides of b
	LEAQ (R10)(R10*4), R12
	LEAQ (R11)(R10*4), R13
	SHRQ $3, CX

loopT:
	// Rows r0..r7 of the block: r = (r[0], ..., r[7]).
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R10*1), Y1
	VMOVUPS (SI)(R10*2), Y2
	VMOVUPS (SI)(R11*1), Y3
	VMOVUPS (SI)(R10*4), Y4
	VMOVUPS (SI)(R12*1), Y5
	VMOVUPS (SI)(R11*2), Y6
	VMOVUPS (SI)(R13*1), Y7
	// Interleave row pairs: Y8 = r0[0] r1[0] r0[1] r1[1] | r0[4] r1[4] r0[5] r1[5].
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15
	// Gather four rows per column: Y0 = r0..r3[0] | r0..r3[4].
	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7
	// Join the 128-bit halves: Y8 = r0..r7[0], ..., Y15 = r0..r7[7].
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, (DI)(R8*1)
	VMOVUPS Y10, (DI)(R8*2)
	VMOVUPS Y11, (DI)(R9*1)
	VMOVUPS Y12, (DI)(R8*4)
	VMOVUPS Y13, (DI)(R14*1)
	VMOVUPS Y14, (DI)(R9*2)
	VMOVUPS Y15, (DI)(DX*1)
	ADDQ    $32, SI
	LEAQ    (DI)(R8*8), DI
	DECQ    CX
	JNZ     loopT
	VZEROUPPER
	RET

// addTo adds n elements of src into dst, dst[i] = dst[i] + src[i], with
// one rounded VADDPS per lane whose first source is dst: the operand
// order of the ADDSS that the compiler emits for `dst[i] += src[i]`,
// which keeps dst's payload when both operands are NaN. 32 elements
// per pass, then 8. n is a positive multiple of 8, and the Go caller
// has checked the last element of both operands.
//
// func addTo(dst, src *float32, n int)
TEXT ·addTo(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	CMPQ CX, $32
	JLT  tailAdd

loopAdd:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VADDPS  (SI), Y0, Y0
	VADDPS  32(SI), Y1, Y1
	VADDPS  64(SI), Y2, Y2
	VADDPS  96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JGE     loopAdd

tailAdd:
	TESTQ   CX, CX
	JZ      doneAdd
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     tailAdd

doneAdd:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
