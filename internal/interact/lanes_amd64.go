//go:build amd64 && !purego

package interact

import "tsvstress/internal/cpuid"

// accumLanes runs the AVX2 kernel over the leading len(px) &^ 3 points
// and returns how many it covered; AccumulateTile's Go kernel takes the
// rest. Guard-band points (d² < rp2Guard) are left to the Go kernel
// too, so the interior/exterior split stays the scalar paths' Hypot
// compare. Needs at least two harmonics for the two Estrin chains.
func (vr *VictimRounds) accumLanes(px, py, sxx, syy, sxy []float64, pd2 float64) int {
	n := len(px) &^ 3
	if !cpuid.AVX2FMA || vr.nm < 2 || n == 0 {
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
