// firMAC4AVX2 and firMAC8AVX512: four- and eight-tap planar FIR
// multiply-accumulate passes, four outputs per iteration in YMM registers
// and eight in ZMM registers. Semantics reference: firMAC4Go and firMAC8Go
// in soa_mac_generic.go — both must stay bit-identical to them: per-lane
// IEEE VMULPD/VSUBPD/VADDPD with no FMA, the accumulator as the first
// source of its add, and the taps added in ascending order to a running
// sum that starts from y[i].
//
// Register plan: the tap components are broadcast to every lane (Y8..Y15
// for four taps, Z16..Z31 for eight); register 0/1 carries the yr/yi
// outputs and registers 2..7 are scratch. Tap j reads the input at byte
// offset (last-j)*8 from the xr/xi base (the base points at the window of
// the pass's last tap, the earliest sample).

#include "textflag.h"

// TAP adds h*x to the accumulators accr/acci, with x loaded from byte
// offset off into xa/xb and the tap's real/imaginary parts in hr/hi:
// re += a*hr - b*hi, im += b*hr + a*hi. t0..t3 are scratch.
#define TAP(off, hr, hi, accr, acci, xa, xb, t0, t1, t2, t3) \
	VMOVUPD off(R8)(AX*8), xa \
	VMOVUPD off(R9)(AX*8), xb \
	VMULPD  hr, xa, t0        \
	VMULPD  hi, xb, t1        \
	VSUBPD  t1, t0, t0        \
	VADDPD  t0, accr, accr    \
	VMULPD  hr, xb, t2        \
	VMULPD  hi, xa, t3        \
	VADDPD  t3, t2, t2        \
	VADDPD  t2, acci, acci

#define TAPY(off, hr, hi) TAP(off, hr, hi, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
#define TAPZ(off, hr, hi) TAP(off, hr, hi, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

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
	TAPY(24, Y8, Y9)
	TAPY(16, Y10, Y11)
	TAPY(8, Y12, Y13)
	TAPY(0, Y14, Y15)
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, (SI)(AX*8)
	ADDQ    $4, AX
	JMP     quad

done:
	VZEROUPPER
	RET

// func firMAC8AVX512(yr, yi, xr, xi, hr, hi []float64)
TEXT ·firMAC8AVX512(SB), NOSPLIT, $0-144
	MOVQ yr_base+0(FP), DI
	MOVQ yr_len+8(FP), CX
	MOVQ yi_base+24(FP), SI
	MOVQ xr_base+48(FP), R8
	MOVQ xi_base+72(FP), R9
	MOVQ hr_base+96(FP), R10
	MOVQ hi_base+120(FP), R11
	ANDQ $-8, CX

	VBROADCASTSD 0(R10), Z16
	VBROADCASTSD 0(R11), Z17
	VBROADCASTSD 8(R10), Z18
	VBROADCASTSD 8(R11), Z19
	VBROADCASTSD 16(R10), Z20
	VBROADCASTSD 16(R11), Z21
	VBROADCASTSD 24(R10), Z22
	VBROADCASTSD 24(R11), Z23
	VBROADCASTSD 32(R10), Z24
	VBROADCASTSD 32(R11), Z25
	VBROADCASTSD 40(R10), Z26
	VBROADCASTSD 40(R11), Z27
	VBROADCASTSD 48(R10), Z28
	VBROADCASTSD 48(R11), Z29
	VBROADCASTSD 56(R10), Z30
	VBROADCASTSD 56(R11), Z31

	XORQ AX, AX

oct:
	CMPQ    AX, CX
	JGE     done8
	VMOVUPD (DI)(AX*8), Z0
	VMOVUPD (SI)(AX*8), Z1
	TAPZ(56, Z16, Z17)
	TAPZ(48, Z18, Z19)
	TAPZ(40, Z20, Z21)
	TAPZ(32, Z22, Z23)
	TAPZ(24, Z24, Z25)
	TAPZ(16, Z26, Z27)
	TAPZ(8, Z28, Z29)
	TAPZ(0, Z30, Z31)
	VMOVUPD Z0, (DI)(AX*8)
	VMOVUPD Z1, (SI)(AX*8)
	ADDQ    $8, AX
	JMP     oct

done8:
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
