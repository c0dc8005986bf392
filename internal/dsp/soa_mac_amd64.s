// firFilterSoAAVX512 and firFilterSoAAVX2: output-stationary planar FIR
// kernels. Each tile of outputs (eight per ZMM, four per YMM register)
// accumulates every tap in registers and is then written once, straight
// into the interleaved block or subtracted from it. Semantics reference:
// firFilterSoAGo in soa_mac_generic.go — both must stay bit-identical to
// it: the accumulators start from +0 (a zeroing VXORPD), taps are added
// in ascending k with per-lane IEEE VMULPD/VSUBPD/VADDPD and no FMA, the
// accumulator is the first source of its add, and the subtract mode
// computes block − y with the block as the first source.
//
// deinterleaveAVX512 splits eight interleaved samples per iteration into
// the re and im planes with two VPERMT2PD.
//
// Pointers: R8/R9 point at xr[T−1]/xi[T−1], the block's first sample, so
// output i's tap k reads (R8)+8*(i−k). R10/R11 are hr/hi, BX is T, DI is
// dst, CX the number of outputs to write, AX the output index and DX the
// subtract flag. Within a tile, R12/R13 walk back one sample per tap and
// SI counts the taps.

#include "textflag.h"

// Permutation indices for VPERMT2PD, one byte per lane (VPMOVZXBQ
// widens them; bit 3 picks the second table): the low and high halves
// of interleaving re/im, then the even and odd elements of two
// interleaved registers.
DATA soaPerm<>+0(SB)/8, $0x0b030a0209010800
DATA soaPerm<>+8(SB)/8, $0x0f070e060d050c04
DATA soaPerm<>+16(SB)/8, $0x0e0c0a0806040200
DATA soaPerm<>+24(SB)/8, $0x0f0d0b0907050301
GLOBL soaPerm<>(SB), RODATA|NOPTR, $32

// TAP adds h*x to the accumulators accr/acci, with x loaded from byte
// offset off of R12/R13 into xa/xb and the tap's real/imaginary parts
// in hr/hi: re += a*hr - b*hi, im += b*hr + a*hi. t0..t3 are scratch.
#define TAP(off, hr, hi, accr, acci, xa, xb, t0, t1, t2, t3) \
	VMOVUPD off(R12), xa   \
	VMOVUPD off(R13), xb   \
	VMULPD  hr, xa, t0     \
	VMULPD  hi, xb, t1     \
	VSUBPD  t1, t0, t0     \
	VADDPD  t0, accr, accr \
	VMULPD  hr, xb, t2     \
	VMULPD  hi, xa, t3     \
	VADDPD  t3, t2, t2     \
	VADDPD  t2, acci, acci

#define TAPZ(off, accr, acci, xa, xb, t0, t1, t2, t3) TAP(off, Z8, Z9, accr, acci, xa, xb, t0, t1, t2, t3)
#define TAPY(off, accr, acci) TAP(off, Y4, Y5, accr, acci, Y6, Y7, Y8, Y9, Y10, Y11)

// TILESTART points R12/R13 at output AX's window and zeroes SI.
#define TILESTART \
	LEAQ (R8)(AX*8), R12 \
	LEAQ (R9)(AX*8), R13 \
	XORQ SI, SI

// TAPNEXT steps R12/R13 back one sample and SI to the next tap, and
// loops to label while taps remain.
#define TAPNEXT(label) \
	SUBQ $8, R12 \
	SUBQ $8, R13 \
	INCQ SI      \
	CMPQ SI, BX  \
	JLT  label

// DSTAT points R12 at dst[AX].
#define DSTAT \
	MOVQ AX, R12 \
	SHLQ $4, R12 \
	ADDQ DI, R12

// ILZ interleaves the re/im tile into lo (outputs 0–3) and re (4–7).
#define ILZ(re, im, lo) \
	VMOVAPD   re, lo      \
	VPERMT2PD im, Z28, lo \
	VPERMT2PD im, Z29, re

// SUBZ subtracts v from the 64 bytes of the block at off(R12).
#define SUBZ(v, off) \
	VMOVUPD off(R12), Z30 \
	VSUBPD  v, Z30, Z30   \
	VMOVUPD Z30, off(R12)

// func firFilterSoAAVX512(dst []complex128, xr, xi, hr, hi []float64, sub bool)
TEXT ·firFilterSoAAVX512(SB), NOSPLIT, $0-121
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    xr_base+24(FP), R8
	MOVQ    xi_base+48(FP), R9
	MOVQ    hr_base+72(FP), R10
	MOVQ    hr_len+80(FP), BX
	MOVQ    hi_base+96(FP), R11
	MOVBQZX sub+120(FP), DX
	LEAQ    -8(R8)(BX*8), R8
	LEAQ    -8(R9)(BX*8), R9
	ANDQ    $-8, CX
	VPMOVZXBQ soaPerm<>+0(SB), Z28
	VPMOVZXBQ soaPerm<>+8(SB), Z29
	XORQ    AX, AX

quad8:
	// Four tiles of eight outputs while 32 remain.
	LEAQ  32(AX), R12
	CMPQ  R12, CX
	JGT   one8
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	TILESTART

tapquad8:
	VBROADCASTSD (R10)(SI*8), Z8
	VBROADCASTSD (R11)(SI*8), Z9
	TAPZ(0, Z0, Z1, Z10, Z11, Z12, Z13, Z14, Z15)
	TAPZ(64, Z2, Z3, Z16, Z17, Z18, Z19, Z20, Z21)
	TAPZ(128, Z4, Z5, Z22, Z23, Z24, Z25, Z26, Z27)
	TAPZ(192, Z6, Z7, Z10, Z11, Z12, Z13, Z14, Z15)
	TAPNEXT(tapquad8)

	ILZ(Z0, Z1, Z10)
	ILZ(Z2, Z3, Z11)
	ILZ(Z4, Z5, Z12)
	ILZ(Z6, Z7, Z13)
	DSTAT
	TESTQ DX, DX
	JNZ   subquad8
	VMOVUPD Z10, 0(R12)
	VMOVUPD Z0, 64(R12)
	VMOVUPD Z11, 128(R12)
	VMOVUPD Z2, 192(R12)
	VMOVUPD Z12, 256(R12)
	VMOVUPD Z4, 320(R12)
	VMOVUPD Z13, 384(R12)
	VMOVUPD Z6, 448(R12)
	ADDQ  $32, AX
	JMP   quad8

subquad8:
	SUBZ(Z10, 0)
	SUBZ(Z0, 64)
	SUBZ(Z11, 128)
	SUBZ(Z2, 192)
	SUBZ(Z12, 256)
	SUBZ(Z4, 320)
	SUBZ(Z13, 384)
	SUBZ(Z6, 448)
	ADDQ $32, AX
	JMP  quad8

one8:
	// Single tiles of eight for the rest.
	CMPQ   AX, CX
	JGE    done8
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	TILESTART

tapone8:
	VBROADCASTSD (R10)(SI*8), Z8
	VBROADCASTSD (R11)(SI*8), Z9
	TAPZ(0, Z0, Z1, Z10, Z11, Z12, Z13, Z14, Z15)
	TAPNEXT(tapone8)

	ILZ(Z0, Z1, Z10)
	DSTAT
	TESTQ DX, DX
	JNZ   subone8
	VMOVUPD Z10, 0(R12)
	VMOVUPD Z0, 64(R12)
	ADDQ  $8, AX
	JMP   one8

subone8:
	SUBZ(Z10, 0)
	SUBZ(Z0, 64)
	ADDQ $8, AX
	JMP  one8

done8:
	VZEROUPPER
	RET

// ILY interleaves the re/im tile into lo (outputs 0–1) and hi (2–3);
// t is scratch.
#define ILY(re, im, lo, hi, t) \
	VUNPCKLPD  im, re, t     \
	VUNPCKHPD  im, re, hi    \
	VPERM2F128 $0x20, hi, t, lo \
	VPERM2F128 $0x31, hi, t, hi

// SUBY subtracts v from the 32 bytes of the block at off(R12).
#define SUBY(v, off) \
	VMOVUPD off(R12), Y15 \
	VSUBPD  v, Y15, Y15   \
	VMOVUPD Y15, off(R12)

// func firFilterSoAAVX2(dst []complex128, xr, xi, hr, hi []float64, sub bool)
TEXT ·firFilterSoAAVX2(SB), NOSPLIT, $0-121
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    xr_base+24(FP), R8
	MOVQ    xi_base+48(FP), R9
	MOVQ    hr_base+72(FP), R10
	MOVQ    hr_len+80(FP), BX
	MOVQ    hi_base+96(FP), R11
	MOVBQZX sub+120(FP), DX
	LEAQ    -8(R8)(BX*8), R8
	LEAQ    -8(R9)(BX*8), R9
	ANDQ    $-4, CX
	XORQ    AX, AX

pair4:
	// Two tiles of four outputs while eight remain.
	LEAQ   8(AX), R12
	CMPQ   R12, CX
	JGT    one4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TILESTART

tappair4:
	VBROADCASTSD (R10)(SI*8), Y4
	VBROADCASTSD (R11)(SI*8), Y5
	TAPY(0, Y0, Y1)
	TAPY(32, Y2, Y3)
	TAPNEXT(tappair4)

	ILY(Y0, Y1, Y12, Y13, Y14)
	ILY(Y2, Y3, Y0, Y1, Y14)
	DSTAT
	TESTQ DX, DX
	JNZ   subpair4
	VMOVUPD Y12, 0(R12)
	VMOVUPD Y13, 32(R12)
	VMOVUPD Y0, 64(R12)
	VMOVUPD Y1, 96(R12)
	ADDQ  $8, AX
	JMP   pair4

subpair4:
	SUBY(Y12, 0)
	SUBY(Y13, 32)
	SUBY(Y0, 64)
	SUBY(Y1, 96)
	ADDQ $8, AX
	JMP  pair4

one4:
	// A single tile of four for the rest.
	CMPQ   AX, CX
	JGE    done4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	TILESTART

tapone4:
	VBROADCASTSD (R10)(SI*8), Y4
	VBROADCASTSD (R11)(SI*8), Y5
	TAPY(0, Y0, Y1)
	TAPNEXT(tapone4)

	ILY(Y0, Y1, Y12, Y13, Y14)
	DSTAT
	TESTQ DX, DX
	JNZ   subone4
	VMOVUPD Y12, 0(R12)
	VMOVUPD Y13, 32(R12)
	ADDQ  $4, AX
	JMP   one4

subone4:
	SUBY(Y12, 0)
	SUBY(Y13, 32)
	ADDQ $4, AX
	JMP  one4

done4:
	VZEROUPPER
	RET

// func deinterleaveAVX512(re, im []float64, x []complex128)
TEXT ·deinterleaveAVX512(SB), NOSPLIT, $0-72
	MOVQ    re_base+0(FP), DI
	MOVQ    im_base+24(FP), SI
	MOVQ    x_base+48(FP), R8
	MOVQ    x_len+56(FP), CX
	ANDQ    $-8, CX
	VPMOVZXBQ soaPerm<>+16(SB), Z30
	VPMOVZXBQ soaPerm<>+24(SB), Z31
	XORQ    AX, AX

split8:
	CMPQ      AX, CX
	JGE       donesplit
	VMOVUPD   0(R8), Z0
	VMOVUPD   64(R8), Z1
	VMOVAPD   Z0, Z2
	VPERMT2PD Z1, Z30, Z2
	VPERMT2PD Z1, Z31, Z0
	VMOVUPD   Z2, (DI)(AX*8)
	VMOVUPD   Z0, (SI)(AX*8)
	ADDQ      $128, R8
	ADDQ      $8, AX
	JMP       split8

donesplit:
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

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
