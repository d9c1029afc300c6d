//go:build amd64 && !purego

package interact

import "tsvstress/internal/cpuid"

// accumLanes runs the lane kernels over the leading len(px) &^ 3 points
// and returns how many they covered; AccumulateTile's Go kernel takes
// the rest. On AVX-512 hosts the AVX-512 kernel takes the leading
// len(px) &^ 7 points and the AVX2 kernel a trailing block of four;
// elsewhere the AVX2 kernel takes them all. Guard-band points
// (d² < rp2Guard) are left to the Go kernel too, so the
// interior/exterior split stays the scalar paths' Hypot compare. Needs
// at least two harmonics for the two Estrin chains.
func (vr *VictimRounds) accumLanes(px, py, sxx, syy, sxy []float64, pd2 float64) int {
	n := len(px) &^ 3
	if !cpuid.AVX2FMA || vr.nm < 2 || n == 0 {
		return 0
	}
	n8, guard := 0, false
	if cpuid.AVX512 {
		n8 = n &^ 7
		if n8 > 0 {
			guard = accumTileAVX512(vr, px[:n8], py[:n8], sxx[:n8], syy[:n8], sxy[:n8], pd2)
		}
	}
	if n > n8 && accumTileAVX2(vr, px[n8:n], py[n8:n], sxx[n8:n], syy[n8:n], sxy[n8:n], pd2) {
		guard = true
	}
	if guard {
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

// accumTileAVX512 is accumTileAVX2 eight points per iteration, with the
// same operations in the same order, so its lanes are bit-identical to
// accumTileAVX2's. len(px) must be a positive multiple of 8, the other
// lanes at least as long, and vr.nm ≥ 2.
//
//go:noescape
func accumTileAVX512(vr *VictimRounds, px, py, sxx, syy, sxy []float64, pd2 float64) (guard bool)
