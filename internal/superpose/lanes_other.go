//go:build !amd64 || purego

package superpose

// accumLanes covers no points without the amd64 lane kernel: the
// portable Go loop runs the whole sweep.
func (f *Profile) accumLanes(cx, cy, px, py, sxx, syy, sxy []float64, cut2 float64) int {
	return 0
}
