//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

// Register map of accumTileAVX2's block body (four points per lane):
//   Y0, Y1   w² (re, im)        Y2       inv2 = R′²/d²
//   Y3, Y4   even-chain S       Y5, Y6   even-chain U
//   Y7, Y8   odd-chain S        Y9, Y10  odd-chain U
//   Y11–Y15  temporaries
// Spill slots (hardware SP): wx 0, wy 32, d² 64, add mask 96.
// GP: AX vr, SI px, DI py, R8 sxx, R9 syy, R10 sxy, CX n, DX i,
// BX &h[nm−2], R11 the first step pair below the top, R12 guard bits,
// R13 scratch and step-pair cursor.

// INIT starts a chain at the hornerStep at off(base):
// S = (c0, c1), U = (c2 − inv2·c4, c3 − inv2·c5).
#define INIT(off, base, SR, SI, UR, UI) \
	VBROADCASTSD off+0(base), SR; \
	VBROADCASTSD off+8(base), SI; \
	VBROADCASTSD off+16(base), UR; \
	VBROADCASTSD off+32(base), Y11; \
	VFNMADD231PD Y2, Y11, UR; \
	VBROADCASTSD off+24(base), UI; \
	VBROADCASTSD off+40(base), Y12; \
	VFNMADD231PD Y2, Y12, UI

// STEP is one Horner step in v = w² with the hornerStep at off(base):
// S ← S·v + (c0, c1), U ← U·v + (c2 − inv2·c4, c3 − inv2·c5).
#define STEP(off, base, SR, SI, UR, UI) \
	VBROADCASTSD off+0(base), Y11; \
	VBROADCASTSD off+8(base), Y12; \
	VFMADD231PD Y0, SR, Y11; \
	VFNMADD231PD Y1, SI, Y11; \
	VFMADD231PD Y1, SR, Y12; \
	VFMADD231PD Y0, SI, Y12; \
	VMOVAPD Y11, SR; \
	VMOVAPD Y12, SI; \
	VBROADCASTSD off+16(base), Y11; \
	VBROADCASTSD off+32(base), Y13; \
	VFNMADD231PD Y2, Y13, Y11; \
	VBROADCASTSD off+24(base), Y12; \
	VBROADCASTSD off+40(base), Y14; \
	VFNMADD231PD Y2, Y14, Y12; \
	VFMADD231PD Y0, UR, Y11; \
	VFNMADD231PD Y1, UI, Y11; \
	VFMADD231PD Y1, UR, Y12; \
	VFMADD231PD Y0, UI, Y12; \
	VMOVAPD Y11, UR; \
	VMOVAPD Y12, UI

// ACCUM adds the lanes of src selected by the add mask in Y13 into the
// four float64s at (base)(DX*8); the other lanes keep their bits.
#define ACCUM(src, base) \
	VMOVUPD (base)(DX*8), Y15; \
	VADDPD src, Y15, Y14; \
	VBLENDVPD Y13, Y14, Y15, Y14; \
	VMOVUPD Y14, (base)(DX*8)

// func accumTileAVX2(vr *VictimRounds, px, py, sxx, syy, sxy []float64, pd2 float64) (guard bool)
TEXT ·accumTileAVX2(SB), NOSPLIT, $128-137
	MOVQ vr+0(FP), AX
	MOVQ px_base+8(FP), SI
	MOVQ px_len+16(FP), CX
	MOVQ py_base+32(FP), DI
	MOVQ sxx_base+56(FP), R8
	MOVQ syy_base+80(FP), R9
	MOVQ sxy_base+104(FP), R10
	XORQ R12, R12
	XORQ DX, DX

	// BX = &h[nm−2]. Both chains share their step pairs (h[2p],
	// h[2p+1]) from R11 = h + 96·⌊(nm−2)/2⌋ down; an odd nm leaves the
	// even chain one extra step, h[nm−3], taken before the pairs.
	MOVQ VictimRounds_nm(AX), R13
	MOVQ VictimRounds_horner(AX), BX
	LEAQ -2(R13), R11
	IMUL3Q $48, R11, R11
	ADDQ R11, BX
	ANDQ $1, R13
	IMUL3Q $48, R13, R13
	MOVQ BX, R11
	SUBQ R13, R11

loop:
	CMPQ DX, CX
	JAE  done

	// d² = dx² + dy², unfused like the Go kernel's, so both kernels
	// classify every point alike.
	VMOVUPD      (SI)(DX*8), Y11
	VBROADCASTSD VictimRounds_vicX(AX), Y12
	VSUBPD       Y12, Y11, Y11
	VMOVUPD      (DI)(DX*8), Y13
	VBROADCASTSD VictimRounds_vicY(AX), Y12
	VSUBPD       Y12, Y13, Y13
	VMULPD       Y11, Y11, Y14
	VMULPD       Y13, Y13, Y15
	VADDPD       Y15, Y14, Y14

	// in = !(d² > pd2), guard = d² < rp2Guard. In-range guard lanes
	// are left to the Go kernel; add = in &^ guard.
	VBROADCASTSD pd2+128(FP), Y12
	VCMPPD       $0x0a, Y12, Y14, Y15
	VBROADCASTSD VictimRounds_rp2Guard(AX), Y12
	VCMPPD       $0x01, Y12, Y14, Y12
	VANDPD       Y12, Y15, Y0
	VMOVMSKPD    Y0, R13
	ORQ          R13, R12
	VANDNPD      Y15, Y12, Y15
	VMOVMSKPD    Y15, R13
	TESTQ        R13, R13
	JZ           next
	VMOVUPD      Y15, 96(SP)
	VMOVUPD      Y14, 64(SP)

	// w = R′·(dx, dy)/d², inv2 = R′²/d², w².
	VBROADCASTSD one<>(SB), Y12
	VDIVPD       Y14, Y12, Y12
	VBROADCASTSD VictimRounds_rPrime(AX), Y15
	VMULPD       Y15, Y11, Y11
	VMULPD       Y12, Y11, Y11
	VMULPD       Y15, Y13, Y13
	VMULPD       Y12, Y13, Y13
	VBROADCASTSD VictimRounds_rp2(AX), Y2
	VMULPD       Y12, Y2, Y2
	VMOVUPD      Y11, 0(SP)
	VMOVUPD      Y13, 32(SP)
	VMULPD       Y11, Y11, Y0
	VMULPD       Y13, Y13, Y14
	VSUBPD       Y14, Y0, Y0
	VADDPD       Y11, Y11, Y1
	VMULPD       Y13, Y1, Y1

	CMPQ R11, BX
	JEQ  evenTop
	INIT(48, BX, Y3, Y4, Y5, Y6)
	INIT(0, BX, Y7, Y8, Y9, Y10)
	STEP(-48, BX, Y3, Y4, Y5, Y6)
	JMP  pairs

evenTop:
	INIT(0, BX, Y3, Y4, Y5, Y6)
	INIT(48, BX, Y7, Y8, Y9, Y10)

pairs:
	MOVQ R11, R13

pairLoop:
	CMPQ R13, VictimRounds_horner(AX)
	JLS  chainsDone
	SUBQ $96, R13
	STEP(0, R13, Y3, Y4, Y5, Y6)
	STEP(48, R13, Y7, Y8, Y9, Y10)
	JMP  pairLoop

chainsDone:
	// S = E + w·O and U likewise.
	VMOVUPD      0(SP), Y11
	VMOVUPD      32(SP), Y12
	VFMADD231PD  Y11, Y7, Y3
	VFNMADD231PD Y12, Y8, Y3
	VFMADD231PD  Y11, Y8, Y4
	VFMADD231PD  Y12, Y7, Y4
	VFMADD231PD  Y11, Y9, Y5
	VFNMADD231PD Y12, Y10, Y5
	VFMADD231PD  Y11, Y10, Y6
	VFMADD231PD  Y12, Y9, Y6

	// w⁴ = (w²)², iso = 2·Re(S·w²), q = d²/R′².
	VMULPD       Y0, Y0, Y7
	VFNMADD231PD Y1, Y1, Y7
	VADDPD       Y0, Y0, Y8
	VMULPD       Y1, Y8, Y8
	VMULPD       Y0, Y3, Y9
	VFNMADD231PD Y1, Y4, Y9
	VADDPD       Y9, Y9, Y9
	VBROADCASTSD VictimRounds_rpInv2(AX), Y10
	VMULPD       64(SP), Y10, Y10

	// V = U·w⁴·q; σxx += iso + Re V, σyy += iso − Re V, σxy += Im V.
	VMULPD       Y7, Y5, Y11
	VFNMADD231PD Y8, Y6, Y11
	VMULPD       Y10, Y11, Y11
	VMULPD       Y8, Y5, Y12
	VFMADD231PD  Y7, Y6, Y12
	VMULPD       Y10, Y12, Y12
	VMOVUPD      96(SP), Y13
	VADDPD       Y11, Y9, Y10
	ACCUM(Y10, R8)
	VSUBPD       Y11, Y9, Y10
	ACCUM(Y10, R9)
	ACCUM(Y12, R10)

next:
	ADDQ $4, DX
	JMP  loop

done:
	VZEROUPPER
	TESTQ R12, R12
	SETNE guard+136(FP)
	RET
