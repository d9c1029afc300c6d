//go:build !amd64 || purego

package interact

// accumLanes covers no points without the amd64 lane kernel: the
// portable Go kernel runs the whole sweep.
func (vr *VictimRounds) accumLanes(px, py, sxx, syy, sxy []float64, pd2 float64) int {
	return 0
}
