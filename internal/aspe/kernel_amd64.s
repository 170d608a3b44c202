#include "textflag.h"

// func signKernel(vec *byte, rows *float64, dim int, live uint64, negTol *[scanChunk]float64, qScale float64, sums *[scanChunk]float64) (fail uint64)
//
// Events 4g … 4g+3 are group g, one YMM lane each. Every group with a
// live event is summed, four groups to a pass: per coordinate k one
// broadcast of vec[k] straight from the arena bytes, then per group a
// VMULPD by the group's quarter of row k and a VADDPD into the group's
// accumulator, which starts at +0. No FMA, so each lane's sum is Dot's
// to the bit. A pass short of four groups repeats its last group.
TEXT ·signKernel(SB), NOSPLIT, $0-64
	MOVQ live+24(FP), R8
	XORQ R11, R11
	TESTQ R8, R8
	JZ   done

	// R8 keeps bit 4g of every group with a live event.
	MOVQ R8, AX
	SHRQ $1, AX
	ORQ  AX, R8
	MOVQ R8, AX
	SHRQ $2, AX
	ORQ  AX, R8
	MOVQ $0x1111111111111111, AX
	ANDQ AX, R8
	MOVQ negTol+32(FP), R9
	MOVQ sums+48(FP), R10
	VBROADCASTSD qScale+40(FP), Y15

pass:
	// AX, BX, DX, R12: the groups' first events; ×8 they are the byte
	// offsets of the groups in a row, in negTol and in sums.
	BSFQ    R8, AX
	LEAQ    -1(R8), R13
	ANDQ    R13, R8
	BSFQ    R8, BX
	CMOVQEQ AX, BX
	LEAQ    -1(R8), R13
	ANDQ    R13, R8
	BSFQ    R8, DX
	CMOVQEQ BX, DX
	LEAQ    -1(R8), R13
	ANDQ    R13, R8
	BSFQ    R8, R12
	CMOVQEQ DX, R12
	LEAQ    -1(R8), R13
	ANDQ    R13, R8

	MOVQ   vec+0(FP), SI
	MOVQ   rows+8(FP), DI
	MOVQ   dim+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

coord:
	VBROADCASTSD (SI), Y4
	VMULPD       (DI)(AX*8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       (DI)(BX*8), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       (DI)(DX*8), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       (DI)(R12*8), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, SI
	ADDQ         $(8*64), DI
	DECQ         CX
	JNZ          coord

	// Per group: store the sums, then fail the lanes whose sum is below
	// negTol·qScale (predicate LT_OQ: a NaN sum passes, as with <).
	VMOVUPD   Y0, (R10)(AX*8)
	VMULPD    (R9)(AX*8), Y15, Y9
	VCMPPD    $0x11, Y9, Y0, Y9
	VMOVMSKPD Y9, R13
	MOVQ      AX, CX
	SHLQ      CX, R13
	ORQ       R13, R11

	VMOVUPD   Y1, (R10)(BX*8)
	VMULPD    (R9)(BX*8), Y15, Y9
	VCMPPD    $0x11, Y9, Y1, Y9
	VMOVMSKPD Y9, R13
	MOVQ      BX, CX
	SHLQ      CX, R13
	ORQ       R13, R11

	VMOVUPD   Y2, (R10)(DX*8)
	VMULPD    (R9)(DX*8), Y15, Y9
	VCMPPD    $0x11, Y9, Y2, Y9
	VMOVMSKPD Y9, R13
	MOVQ      DX, CX
	SHLQ      CX, R13
	ORQ       R13, R11

	VMOVUPD   Y3, (R10)(R12*8)
	VMULPD    (R9)(R12*8), Y15, Y9
	VCMPPD    $0x11, Y9, Y3, Y9
	VMOVMSKPD Y9, R13
	MOVQ      R12, CX
	SHLQ      CX, R13
	ORQ       R13, R11

	TESTQ R8, R8
	JNZ   pass

done:
	MOVQ R11, fail+56(FP)
	VZEROUPPER
	RET

// func hasAVX2() bool
//
// CPUID leaf 1: OSXSAVE and AVX; XCR0: the OS saves the XMM and YMM
// registers; CPUID leaf 7: AVX2.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27|1<<28), CX
	CMPL CX, $(1<<27|1<<28)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)

no:
	RET
