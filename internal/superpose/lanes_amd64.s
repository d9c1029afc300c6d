//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// Register map of accumTileAVX2 (four points per lane):
//   Y0, Y1, Y2  the block's sxx, syy, sxy    Y3, Y4  its px, py
//   Y5, Y6      dx, dy                       Y7, Y8  dx², dy²
//   Y9          d²                           Y10     add mask
//   Y11–Y14     ring masks and temporaries
// The profile constants are broadcast once into spill slots (hardware
// SP): cut2 0, r2 32, rPrime2 64, linerA 96, linerB 128, subB 160,
// bodyA 192. GP: SI cx, DI cy, CX len(cx), R8 px, R9 py, R10 sxx,
// R11 syy, R12 sxy, R13 len(px), DX i, BX k, AX the add-mask bits.

// func accumTileAVX2(f *Profile, cx, cy, px, py, sxx, syy, sxy []float64, cut2 float64)
TEXT ·accumTileAVX2(SB), NOSPLIT, $224-184
	MOVQ         f+0(FP), AX
	VBROADCASTSD cut2+176(FP), Y0
	VMOVUPD      Y0, 0(SP)
	VBROADCASTSD Profile_r2(AX), Y0
	VMOVUPD      Y0, 32(SP)
	VBROADCASTSD Profile_rPrime2(AX), Y0
	VMOVUPD      Y0, 64(SP)
	VBROADCASTSD Profile_linerA(AX), Y0
	VMOVUPD      Y0, 96(SP)
	VBROADCASTSD Profile_linerB(AX), Y0
	VMOVUPD      Y0, 128(SP)
	VBROADCASTSD Profile_subB(AX), Y0
	VMOVUPD      Y0, 160(SP)
	VBROADCASTSD Profile_bodyA(AX), Y0
	VMOVUPD      Y0, 192(SP)

	MOVQ cx_base+8(FP), SI
	MOVQ cx_len+16(FP), CX
	MOVQ cy_base+32(FP), DI
	MOVQ px_base+56(FP), R8
	MOVQ px_len+64(FP), R13
	MOVQ py_base+80(FP), R9
	MOVQ sxx_base+104(FP), R10
	MOVQ syy_base+128(FP), R11
	MOVQ sxy_base+152(FP), R12
	XORQ DX, DX

block:
	CMPQ    DX, R13
	JAE     done
	VMOVUPD (R8)(DX*8), Y3
	VMOVUPD (R9)(DX*8), Y4
	VMOVUPD (R10)(DX*8), Y0
	VMOVUPD (R11)(DX*8), Y1
	VMOVUPD (R12)(DX*8), Y2
	XORQ    BX, BX

cand:
	CMPQ BX, CX
	JAE  store

	// d² = dx² + dy², unfused like the Go loop's, so both kernels
	// classify every point alike.
	VBROADCASTSD (SI)(BX*8), Y5
	VSUBPD       Y5, Y3, Y5
	VBROADCASTSD (DI)(BX*8), Y6
	VSUBPD       Y6, Y4, Y6
	VMULPD       Y5, Y5, Y7
	VMULPD       Y6, Y6, Y8
	VADDPD       Y8, Y7, Y9

	// add = !(d² > cut2); skip the candidate when no lane is in range.
	VCMPPD    $0x0a, 0(SP), Y9, Y10
	VMOVMSKPD Y10, AX
	TESTQ     AX, AX
	JZ        nextCand

	// Liner lanes (d² < rPrime2) take a = linerA, b = linerB, the
	// others a = 0, b = subB; w = b/d⁴.
	VCMPPD    $0x01, 64(SP), Y9, Y11
	VMOVUPD   160(SP), Y12
	VBLENDVPD Y11, 128(SP), Y12, Y12
	VANDPD    96(SP), Y11, Y13
	VMULPD    Y9, Y9, Y14
	VDIVPD    Y14, Y12, Y12

	// h = w·(dx² − dy²): xx = a + h, yy = a − h, xy = ((w+w)·dx)·dy.
	VSUBPD Y8, Y7, Y7
	VMULPD Y7, Y12, Y7
	VADDPD Y7, Y13, Y8
	VSUBPD Y7, Y13, Y7
	VADDPD Y12, Y12, Y12
	VMULPD Y5, Y12, Y12
	VMULPD Y6, Y12, Y12

	// Body lanes (d² < r2) take (bodyA, bodyA, 0); this also blends
	// away the centre's 0/0.
	VCMPPD    $0x01, 32(SP), Y9, Y11
	VBLENDVPD Y11, 192(SP), Y8, Y8
	VBLENDVPD Y11, 192(SP), Y7, Y7
	VANDNPD   Y12, Y11, Y12

	// Masked adds: out-of-range lanes keep their bits.
	VADDPD    Y8, Y0, Y13
	VBLENDVPD Y10, Y13, Y0, Y0
	VADDPD    Y7, Y1, Y13
	VBLENDVPD Y10, Y13, Y1, Y1
	VADDPD    Y12, Y2, Y13
	VBLENDVPD Y10, Y13, Y2, Y2

nextCand:
	INCQ BX
	JMP  cand

store:
	VMOVUPD Y0, (R10)(DX*8)
	VMOVUPD Y1, (R11)(DX*8)
	VMOVUPD Y2, (R12)(DX*8)
	ADDQ    $4, DX
	JMP     block

done:
	VZEROUPPER
	RET

// Register map of accumTileAVX512 (eight points per lane, the
// operations of accumTileAVX2 in the same order):
//   Z0, Z1, Z2  the block's sxx, syy, sxy    Z3, Z4  its px, py
//   Z5, Z6      dx, dy                       Z7, Z8  dx², dy²
//   Z9          d²                           Z12–Z14 temporaries
//   Z16 cut2, Z17 r2, Z18 rPrime2, Z19 linerA, Z20 linerB, Z21 subB,
//   Z22 bodyA, broadcast once per call.
//   K1 add mask, K2 liner-or-body (d² < rPrime2), K3 body (d² < r2),
//   K4 not body.
// GP registers as in accumTileAVX2.

// func accumTileAVX512(f *Profile, cx, cy, px, py, sxx, syy, sxy []float64, cut2 float64)
TEXT ·accumTileAVX512(SB), NOSPLIT, $0-184
	MOVQ         f+0(FP), AX
	VBROADCASTSD cut2+176(FP), Z16
	VBROADCASTSD Profile_r2(AX), Z17
	VBROADCASTSD Profile_rPrime2(AX), Z18
	VBROADCASTSD Profile_linerA(AX), Z19
	VBROADCASTSD Profile_linerB(AX), Z20
	VBROADCASTSD Profile_subB(AX), Z21
	VBROADCASTSD Profile_bodyA(AX), Z22

	MOVQ cx_base+8(FP), SI
	MOVQ cx_len+16(FP), CX
	MOVQ cy_base+32(FP), DI
	MOVQ px_base+56(FP), R8
	MOVQ px_len+64(FP), R13
	MOVQ py_base+80(FP), R9
	MOVQ sxx_base+104(FP), R10
	MOVQ syy_base+128(FP), R11
	MOVQ sxy_base+152(FP), R12
	XORQ DX, DX

block512:
	CMPQ    DX, R13
	JAE     done512
	VMOVUPD (R8)(DX*8), Z3
	VMOVUPD (R9)(DX*8), Z4
	VMOVUPD (R10)(DX*8), Z0
	VMOVUPD (R11)(DX*8), Z1
	VMOVUPD (R12)(DX*8), Z2
	XORQ    BX, BX

cand512:
	CMPQ BX, CX
	JAE  store512

	VBROADCASTSD (SI)(BX*8), Z5
	VSUBPD       Z5, Z3, Z5
	VBROADCASTSD (DI)(BX*8), Z6
	VSUBPD       Z6, Z4, Z6
	VMULPD       Z5, Z5, Z7
	VMULPD       Z6, Z6, Z8
	VADDPD       Z8, Z7, Z9

	// add = !(d² > cut2); skip the candidate when no lane is in range.
	VCMPPD   $0x0a, Z16, Z9, K1
	KORTESTW K1, K1
	JZ       nextCand512

	// b = linerB on liner lanes, else subB; a = linerA on liner lanes,
	// else +0; w = b/d⁴.
	VCMPPD    $0x01, Z18, Z9, K2
	VMOVAPD   Z21, Z12
	VMOVAPD   Z20, K2, Z12
	VMOVAPD.Z Z19, K2, Z13
	VMULPD    Z9, Z9, Z14
	VDIVPD    Z14, Z12, Z12

	// h = w·(dx² − dy²): xx = a + h, yy = a − h, xy = ((w+w)·dx)·dy,
	// with xy zeroed on body lanes.
	VCMPPD   $0x01, Z17, Z9, K3
	KNOTW    K3, K4
	VSUBPD   Z8, Z7, Z7
	VMULPD   Z7, Z12, Z7
	VADDPD   Z7, Z13, Z8
	VSUBPD   Z7, Z13, Z7
	VADDPD   Z12, Z12, Z12
	VMULPD   Z5, Z12, Z12
	VMULPD.Z Z6, Z12, K4, Z12

	// Body lanes take (bodyA, bodyA, 0).
	VMOVAPD Z22, K3, Z8
	VMOVAPD Z22, K3, Z7

	// Merge-masked adds: out-of-range lanes keep their bits.
	VADDPD Z8, Z0, K1, Z0
	VADDPD Z7, Z1, K1, Z1
	VADDPD Z12, Z2, K1, Z2

nextCand512:
	INCQ BX
	JMP  cand512

store512:
	VMOVUPD Z0, (R10)(DX*8)
	VMOVUPD Z1, (R11)(DX*8)
	VMOVUPD Z2, (R12)(DX*8)
	ADDQ    $8, DX
	JMP     block512

done512:
	VZEROUPPER
	RET
