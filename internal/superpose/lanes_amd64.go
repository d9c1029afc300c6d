//go:build amd64 && !purego

package superpose

import "tsvstress/internal/cpuid"

// accumLanes runs the lane kernels over the leading len(px) &^ 3 points
// and returns how many they covered; AccumTile's Go loop takes the
// rest. On AVX-512 hosts the AVX-512 kernel takes the leading
// len(px) &^ 7 points and the AVX2 kernel a trailing block of four;
// elsewhere the AVX2 kernel takes them all.
func (f *Profile) accumLanes(cx, cy, px, py, sxx, syy, sxy []float64, cut2 float64) int {
	n := len(px) &^ 3
	if !cpuid.AVX2FMA || n == 0 || len(cx) == 0 {
		return 0
	}
	n8 := 0
	if cpuid.AVX512 {
		n8 = n &^ 7
		if n8 > 0 {
			accumTileAVX512(f, cx, cy, px[:n8], py[:n8], sxx[:n8], syy[:n8], sxy[:n8], cut2)
		}
	}
	if n > n8 {
		accumTileAVX2(f, cx, cy, px[n8:n], py[n8:n], sxx[n8:n], syy[n8:n], sxy[n8:n], cut2)
	}
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

// accumTileAVX512 is accumTileAVX2 eight points per iteration, with the
// same operations in the same order, so its lanes are bit-identical to
// both other kernels'. len(px) must be a positive multiple of 8, the
// other point lanes at least as long, and len(cy) ≥ len(cx).
//
//go:noescape
func accumTileAVX512(f *Profile, cx, cy, px, py, sxx, syy, sxy []float64, cut2 float64)
