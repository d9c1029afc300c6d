//go:build amd64 && !purego

package superpose

import "tsvstress/internal/cpuid"

// accumLanes runs the AVX2 kernel over the leading len(px) &^ 3 points
// and returns how many it covered; AccumTile's Go loop takes the rest.
func (f *Profile) accumLanes(cx, cy, px, py, sxx, syy, sxy []float64, cut2 float64) int {
	n := len(px) &^ 3
	if !cpuid.AVX2FMA || n == 0 || len(cx) == 0 {
		return 0
	}
	accumTileAVX2(f, cx, cy, px[:n], py[:n], sxx[:n], syy[:n], sxy[:n], cut2)
	return n
}

// accumTileAVX2 is AccumTile's loop four points per iteration: per
// block of four points it sums every candidate with d² ≤ cut2 in k
// order, through At's operations, so each point's sum is bit-identical
// to the Go loop's. len(px) must be a positive multiple of 4, the other
// point lanes at least as long, and len(cy) ≥ len(cx).
//
//go:noescape
func accumTileAVX2(f *Profile, cx, cy, px, py, sxx, syy, sxy []float64, cut2 float64)
