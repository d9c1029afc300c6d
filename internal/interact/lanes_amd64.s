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

// INITW starts a chain at the hornerStep at off(base):
// S = (c0, c1), U = (c2 − inv2·c4, c3 − inv2·c5), with inv2 in IV and
// T1, T2 as temporaries. INIT is it on Y registers.
#define INITW(off, base, SR, SI, UR, UI, IV, T1, T2) \
	VBROADCASTSD off+0(base), SR; \
	VBROADCASTSD off+8(base), SI; \
	VBROADCASTSD off+16(base), UR; \
	VBROADCASTSD off+32(base), T1; \
	VFNMADD231PD IV, T1, UR; \
	VBROADCASTSD off+24(base), UI; \
	VBROADCASTSD off+40(base), T2; \
	VFNMADD231PD IV, T2, UI

#define INIT(off, base, SR, SI, UR, UI) INITW(off, base, SR, SI, UR, UI, Y2, Y11, Y12)

// STEPW is one Horner step in v = w² (re V0, im V1) with the
// hornerStep at off(base): S ← S·v + (c0, c1),
// U ← U·v + (c2 − inv2·c4, c3 − inv2·c5), with inv2 in IV and T1–T4 as
// temporaries. STEP is it on Y registers.
#define STEPW(off, base, SR, SI, UR, UI, V0, V1, IV, T1, T2, T3, T4) \
	VBROADCASTSD off+0(base), T1; \
	VBROADCASTSD off+8(base), T2; \
	VFMADD231PD V0, SR, T1; \
	VFNMADD231PD V1, SI, T1; \
	VFMADD231PD V1, SR, T2; \
	VFMADD231PD V0, SI, T2; \
	VMOVAPD T1, SR; \
	VMOVAPD T2, SI; \
	VBROADCASTSD off+16(base), T1; \
	VBROADCASTSD off+32(base), T3; \
	VFNMADD231PD IV, T3, T1; \
	VBROADCASTSD off+24(base), T2; \
	VBROADCASTSD off+40(base), T4; \
	VFNMADD231PD IV, T4, T2; \
	VFMADD231PD V0, UR, T1; \
	VFNMADD231PD V1, UI, T1; \
	VFMADD231PD V1, UR, T2; \
	VFMADD231PD V0, UI, T2; \
	VMOVAPD T1, UR; \
	VMOVAPD T2, UI

#define STEP(off, base, SR, SI, UR, UI) STEPW(off, base, SR, SI, UR, UI, Y0, Y1, Y2, Y11, Y12, Y13, Y14)

// STEPPTRS sets BX = &h[nm−2] for the VictimRounds in AX. Both chains
// share their step pairs (h[2p], h[2p+1]) from R11 = h + 96·⌊(nm−2)/2⌋
// down; an odd nm leaves the even chain one extra step, h[nm−3], taken
// before the pairs. It clobbers R13.
#define STEPPTRS \
	MOVQ VictimRounds_nm(AX), R13; \
	MOVQ VictimRounds_horner(AX), BX; \
	LEAQ -2(R13), R11; \
	IMUL3Q $48, R11, R11; \
	ADDQ R11, BX; \
	ANDQ $1, R13; \
	IMUL3Q $48, R13, R13; \
	MOVQ BX, R11; \
	SUBQ R13, R11

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

	STEPPTRS

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

// Register map of accumTileAVX512's block body (eight points per lane,
// the operations of accumTileAVX2 in the same order):
//   Z0, Z1   w² (re, im)        Z2       inv2 = R′²/d²
//   Z3, Z4   even-chain S       Z5, Z6   even-chain U
//   Z7, Z8   odd-chain S        Z9, Z10  odd-chain U
//   Z11–Z15  temporaries        Z27, Z28 wx, wy    Z29 d²
//   Z16 vicX, Z17 vicY, Z18 pd2, Z19 rp2Guard, Z20 1.0, Z21 R′,
//   Z22 R′², Z23 1/R′², broadcast once per call.
//   K1 in range, K2 in-range guard lanes, K3 add = K1 &^ K2.
// GP registers as in accumTileAVX2.

// INIT512 and STEP512 are INITW and STEPW on Z registers.
#define INIT512(off, base, SR, SI, UR, UI) INITW(off, base, SR, SI, UR, UI, Z2, Z11, Z12)
#define STEP512(off, base, SR, SI, UR, UI) STEPW(off, base, SR, SI, UR, UI, Z0, Z1, Z2, Z11, Z12, Z13, Z14)

// ACCUM512 adds the lanes of src selected by K3 into the eight float64s
// at (base)(DX*8); the other lanes keep their bits.
#define ACCUM512(src, base) \
	VMOVUPD (base)(DX*8), Z15; \
	VADDPD src, Z15, K3, Z15; \
	VMOVUPD Z15, (base)(DX*8)

// func accumTileAVX512(vr *VictimRounds, px, py, sxx, syy, sxy []float64, pd2 float64) (guard bool)
TEXT ·accumTileAVX512(SB), NOSPLIT, $0-137
	MOVQ         vr+0(FP), AX
	MOVQ         px_base+8(FP), SI
	MOVQ         px_len+16(FP), CX
	MOVQ         py_base+32(FP), DI
	MOVQ         sxx_base+56(FP), R8
	MOVQ         syy_base+80(FP), R9
	MOVQ         sxy_base+104(FP), R10
	VBROADCASTSD VictimRounds_vicX(AX), Z16
	VBROADCASTSD VictimRounds_vicY(AX), Z17
	VBROADCASTSD pd2+128(FP), Z18
	VBROADCASTSD VictimRounds_rp2Guard(AX), Z19
	VBROADCASTSD one<>(SB), Z20
	VBROADCASTSD VictimRounds_rPrime(AX), Z21
	VBROADCASTSD VictimRounds_rp2(AX), Z22
	VBROADCASTSD VictimRounds_rpInv2(AX), Z23
	XORQ         R12, R12
	XORQ         DX, DX

	STEPPTRS

loop512:
	CMPQ DX, CX
	JAE  done512

	VMOVUPD (SI)(DX*8), Z11
	VSUBPD  Z16, Z11, Z11
	VMOVUPD (DI)(DX*8), Z13
	VSUBPD  Z17, Z13, Z13
	VMULPD  Z11, Z11, Z14
	VMULPD  Z13, Z13, Z15
	VADDPD  Z15, Z14, Z29

	// K1 = in = !(d² > pd2), K2 = in && d² < rp2Guard (its bits go to
	// the guard word), K3 = add = in &^ guard.
	VCMPPD   $0x0a, Z18, Z29, K1
	VCMPPD   $0x01, Z19, Z29, K1, K2
	KMOVW    K2, R13
	ORQ      R13, R12
	KXORW    K2, K1, K3
	KORTESTW K3, K3
	JZ       next512

	// w = R′·(dx, dy)/d², inv2 = R′²/d², w².
	VDIVPD Z29, Z20, Z12
	VMULPD Z21, Z11, Z11
	VMULPD Z12, Z11, Z27
	VMULPD Z21, Z13, Z13
	VMULPD Z12, Z13, Z28
	VMULPD Z12, Z22, Z2
	VMULPD Z27, Z27, Z0
	VMULPD Z28, Z28, Z14
	VSUBPD Z14, Z0, Z0
	VADDPD Z27, Z27, Z1
	VMULPD Z28, Z1, Z1

	CMPQ R11, BX
	JEQ  evenTop512
	INIT512(48, BX, Z3, Z4, Z5, Z6)
	INIT512(0, BX, Z7, Z8, Z9, Z10)
	STEP512(-48, BX, Z3, Z4, Z5, Z6)
	JMP  pairs512

evenTop512:
	INIT512(0, BX, Z3, Z4, Z5, Z6)
	INIT512(48, BX, Z7, Z8, Z9, Z10)

pairs512:
	MOVQ R11, R13

pairLoop512:
	CMPQ R13, VictimRounds_horner(AX)
	JLS  chainsDone512
	SUBQ $96, R13
	STEP512(0, R13, Z3, Z4, Z5, Z6)
	STEP512(48, R13, Z7, Z8, Z9, Z10)
	JMP  pairLoop512

chainsDone512:
	// S = E + w·O and U likewise.
	VFMADD231PD  Z27, Z7, Z3
	VFNMADD231PD Z28, Z8, Z3
	VFMADD231PD  Z27, Z8, Z4
	VFMADD231PD  Z28, Z7, Z4
	VFMADD231PD  Z27, Z9, Z5
	VFNMADD231PD Z28, Z10, Z5
	VFMADD231PD  Z27, Z10, Z6
	VFMADD231PD  Z28, Z9, Z6

	// w⁴ = (w²)², iso = 2·Re(S·w²), q = d²/R′².
	VMULPD       Z0, Z0, Z7
	VFNMADD231PD Z1, Z1, Z7
	VADDPD       Z0, Z0, Z8
	VMULPD       Z1, Z8, Z8
	VMULPD       Z0, Z3, Z9
	VFNMADD231PD Z1, Z4, Z9
	VADDPD       Z9, Z9, Z9
	VMULPD       Z29, Z23, Z10

	// V = U·w⁴·q; σxx += iso + Re V, σyy += iso − Re V, σxy += Im V.
	VMULPD       Z7, Z5, Z11
	VFNMADD231PD Z8, Z6, Z11
	VMULPD       Z10, Z11, Z11
	VMULPD       Z8, Z5, Z12
	VFMADD231PD  Z7, Z6, Z12
	VMULPD       Z10, Z12, Z12
	VADDPD       Z11, Z9, Z10
	ACCUM512(Z10, R8)
	VSUBPD       Z11, Z9, Z10
	ACCUM512(Z10, R9)
	ACCUM512(Z12, R10)

next512:
	ADDQ $8, DX
	JMP  loop512

done512:
	VZEROUPPER
	TESTQ R12, R12
	SETNE guard+136(FP)
	RET
