// firMAC4AVX2: four-tap planar FIR multiply-accumulate pass, four outputs
// per iteration in YMM registers. Semantics reference: firMAC4Go in
// soa_mac_generic.go — this must stay bit-identical to it: per-lane IEEE
// VMULPD/VSUBPD/VADDPD with no FMA, the accumulator as the first source
// of its add, and tap 0 through tap 3 added in order to a running sum
// that starts from y[i].
//
// Register plan: Y8..Y15 hold the eight tap components broadcast to all
// four lanes; Y0/Y1 carry four yr/yi outputs; Y2..Y7 are scratch. Tap j
// reads the input at byte offset (3-j)*8 from the xr/xi base (the base
// points at the window of tap 3, the earliest sample).

#include "textflag.h"

// TAP adds h*x to Y0/Y1, with x loaded from byte offset off and the tap's
// real/imaginary parts in hr/hi: re += a*hr - b*hi, im += b*hr + a*hi.
#define TAP(off, hr, hi) \
	VMOVUPD off(R8)(AX*8), Y2 \
	VMOVUPD off(R9)(AX*8), Y3 \
	VMULPD  hr, Y2, Y4        \
	VMULPD  hi, Y3, Y5        \
	VSUBPD  Y5, Y4, Y4        \
	VADDPD  Y4, Y0, Y0        \
	VMULPD  hr, Y3, Y6        \
	VMULPD  hi, Y2, Y7        \
	VADDPD  Y7, Y6, Y6        \
	VADDPD  Y6, Y1, Y1

// func firMAC4AVX2(yr, yi, xr, xi []float64, h0r, h0i, h1r, h1i, h2r, h2i, h3r, h3i float64)
TEXT ·firMAC4AVX2(SB), NOSPLIT, $0-160
	MOVQ yr_base+0(FP), DI
	MOVQ yr_len+8(FP), CX
	MOVQ yi_base+24(FP), SI
	MOVQ xr_base+48(FP), R8
	MOVQ xi_base+72(FP), R9
	ANDQ $-4, CX

	VBROADCASTSD h0r+96(FP), Y8
	VBROADCASTSD h0i+104(FP), Y9
	VBROADCASTSD h1r+112(FP), Y10
	VBROADCASTSD h1i+120(FP), Y11
	VBROADCASTSD h2r+128(FP), Y12
	VBROADCASTSD h2i+136(FP), Y13
	VBROADCASTSD h3r+144(FP), Y14
	VBROADCASTSD h3i+152(FP), Y15

	XORQ AX, AX

quad:
	CMPQ    AX, CX
	JGE     done
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y1
	TAP(24, Y8, Y9)
	TAP(16, Y10, Y11)
	TAP(8, Y12, Y13)
	TAP(0, Y14, Y15)
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, (SI)(AX*8)
	ADDQ    $4, AX
	JMP     quad

done:
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
