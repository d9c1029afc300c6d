//go:build amd64 && !purego

package superpose

import (
	"math"
	"math/rand"
	"testing"

	"tsvstress/internal/cpuid"
	"tsvstress/internal/geom"
)

// ulps returns x moved k units in the last place (down for k < 0).
func ulps(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// TestLaneKernelsBitIdentical calls the AVX-512 and AVX2 kernels
// directly and requires bit-identical lanes: accumLanes' AVX-512 split
// (accumTileAVX512 over the leading n &^ 7 points, accumTileAVX2 over a
// trailing block of four) against accumTileAVX2 over all n &^ 3, both
// against the per-point At sum in k order. It covers lane lengths 0–19
// at every pool offset, 0, 1, 3 and 5 candidates, and points whose
// exact d² sits on cut2, r2 or rPrime2 while that threshold moves 4
// (cut2) or 2 (r2, rPrime2) ulps either way, the candidate's own centre
// (0/0 on its lane), and body, liner, substrate and out-of-range lanes
// in one 8-block. A point with no candidate in range keeps its bits.
func TestLaneKernelsBitIdentical(t *testing.T) {
	if !cpuid.AVX512 {
		t.Skip("cpuid.AVX512 is false (no AVX512F, or the OS does not save the opmask and ZMM state): the AVX-512 kernel is not tested on this host")
	}
	ls := newLS(t, Options{})
	st := ls.Struct
	// R = 2.5, R′ = 3 and the on-edge offsets below have few mantissa
	// bits, so px − cx and d² are exact: d² is r2, rPrime2 or cut2 bit
	// for bit.
	c := geom.Pt(0.5, -1.25)
	const cut = DefaultCutoff
	at := func(r, ang float64) geom.Point {
		return geom.Pt(c.X+r*math.Cos(ang), c.Y+r*math.Sin(ang))
	}
	pool := []geom.Point{
		c,                           // centre, d² = 0
		geom.Pt(c.X+st.R, c.Y),      // d² = r2
		at(9, 4.0),                  // substrate
		geom.Pt(c.X-st.RPrime, c.Y), // d² = rPrime2
		at(40, 5.1),                 // out of range
		geom.Pt(c.X+cut, c.Y),       // d² = cut2
		at(1.2, 0.7),                // body
		geom.Pt(c.X, c.Y+st.R),      // d² = r2
		at(2.8, 2.1),                // liner
		geom.Pt(c.X-15, c.Y+20),     // d² = cut2
		geom.Pt(c.X, c.Y-st.RPrime), // d² = rPrime2
		at(30, 1.3),                 // out of range
		geom.Pt(c.X+ulps(cut, 4), c.Y),
		at(18, 2.9), // substrate
	}
	cands := [][]geom.Point{
		nil,
		{c},
		{c, geom.Pt(c.X+10, c.Y+3), geom.Pt(c.X-60, c.Y)},
		{geom.Pt(c.X-7, c.Y-7), c, geom.Pt(c.X+2.75, c.Y), geom.Pt(c.X+30, c.Y+30), geom.Pt(c.X+ulps(cut, 1), c.Y+cut)},
	}
	// Profile and cut2 variants: one threshold at a time moves off the
	// exact d² of the on-edge points.
	type variant struct {
		prof Profile
		cut2 float64
	}
	base := ls.Profile()
	var variants []variant
	for k := -4; k <= 4; k++ {
		variants = append(variants, variant{base, ulps(cut*cut, k)})
	}
	for k := -2; k <= 2; k++ {
		if k == 0 {
			continue
		}
		p := base
		p.r2 = ulps(base.r2, k)
		variants = append(variants, variant{p, cut * cut})
		p = base
		p.rPrime2 = ulps(base.rPrime2, k)
		variants = append(variants, variant{p, cut * cut})
	}
	rng := rand.New(rand.NewSource(27))
	for vi := range variants {
		prof, cut2 := &variants[vi].prof, variants[vi].cut2
		for ci, cs := range cands {
			cx, cy := make([]float64, len(cs)), make([]float64, len(cs))
			for k, q := range cs {
				cx[k], cy[k] = q.X, q.Y
			}
			for n := 0; n <= 19; n++ {
				n4, n8 := n&^3, n&^7
				for off := 0; off < len(pool); off++ {
					px, py := make([]float64, n), make([]float64, n)
					init := make([]float64, 3*n)
					for i := 0; i < n; i++ {
						p := pool[(off+i)%len(pool)]
						px[i], py[i] = p.X, p.Y
						init[3*i], init[3*i+1], init[3*i+2] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
					}
					lanes := func() (sxx, syy, sxy []float64) {
						sxx, syy, sxy = make([]float64, n), make([]float64, n), make([]float64, n)
						for i := 0; i < n; i++ {
							sxx[i], syy[i], sxy[i] = init[3*i], init[3*i+1], init[3*i+2]
						}
						return sxx, syy, sxy
					}
					axx, ayy, axy := lanes()
					if n8 > 0 {
						accumTileAVX512(prof, cx, cy, px[:n8], py[:n8], axx[:n8], ayy[:n8], axy[:n8], cut2)
					}
					if n4 > n8 {
						accumTileAVX2(prof, cx, cy, px[n8:n4], py[n8:n4], axx[n8:n4], ayy[n8:n4], axy[n8:n4], cut2)
					}
					bxx, byy, bxy := lanes()
					if n4 > 0 {
						accumTileAVX2(prof, cx, cy, px[:n4], py[:n4], bxx[:n4], byy[:n4], bxy[:n4], cut2)
					}
					for i := 0; i < n; i++ {
						want := [3]float64{init[3*i], init[3*i+1], init[3*i+2]}
						for k := range cx {
							if i >= n4 {
								break // no kernel visits the tail
							}
							dx, dy := px[i]-cx[k], py[i]-cy[k]
							if d2 := dx*dx + dy*dy; d2 <= cut2 {
								xx, yy, xy := prof.At(dx, dy, d2)
								want[0] += xx
								want[1] += yy
								want[2] += xy
							}
						}
						a := [3]float64{axx[i], ayy[i], axy[i]}
						b := [3]float64{bxx[i], byy[i], bxy[i]}
						for j := 0; j < 3; j++ {
							if math.Float64bits(a[j]) != math.Float64bits(want[j]) || math.Float64bits(b[j]) != math.Float64bits(want[j]) {
								t.Fatalf("variant %d cands %d n %d off %d point %d %v: AVX-512 split %v, AVX2 %v, per-point %v",
									vi, ci, n, off, i, geom.Pt(px[i], py[i]), a, b, want)
							}
						}
					}
				}
			}
		}
	}
}
