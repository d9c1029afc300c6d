//go:build amd64 && !purego

package interact

// hasAVX2FMA reports whether the host can run accumTileAVX2: the CPU
// has AVX, AVX2 and FMA, and the OS saves the YMM state (OSXSAVE with
// XCR0 bits 1 and 2 set). Detected once at package init.
var hasAVX2FMA = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// accumLanes runs the AVX2 kernel over the leading len(px) &^ 3 points
// and returns how many it covered; AccumulateTile's Go kernel takes the
// rest. Guard-band points (d² < rp2Guard) are left to the Go kernel
// too, so the interior/exterior split stays the scalar paths' Hypot
// compare. Needs at least two harmonics for the two Estrin chains.
func (vr *VictimRounds) accumLanes(px, py, sxx, syy, sxy []float64, pd2 float64) int {
	n := len(px) &^ 3
	if !hasAVX2FMA || vr.nm < 2 || n == 0 {
		return 0
	}
	if accumTileAVX2(vr, px[:n], py[:n], sxx[:n], syy[:n], sxy[:n], pd2) {
		vr.accumGo(px[:n], py[:n], sxx[:n], syy[:n], sxy[:n], pd2, true)
	}
	return n
}

// accumTileAVX2 is the exterior part of accumGo, four points per
// iteration: it adds the full-series stress of every point with
// rp2Guard ≤ d² ≤ pd2 and reports whether any point with d² ≤ pd2 fell
// below rp2Guard. len(px) must be a positive multiple of 4, the other
// lanes at least as long, and vr.nm ≥ 2.
//
//go:noescape
func accumTileAVX2(vr *VictimRounds, px, py, sxx, syy, sxy []float64, pd2 float64) (guard bool)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
