//go:build amd64 && !purego

package interact

import (
	"math"
	"math/rand"
	"testing"

	"tsvstress/internal/cpuid"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
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
// directly and requires bit-identical lanes and guard results:
// accumLanes' AVX-512 split (accumTileAVX512 over the leading n &^ 7
// points, accumTileAVX2 over a trailing block of four) against
// accumTileAVX2 over all n &^ 3. It covers lane lengths 0–19 at every
// pool offset, 0, 1, 3 and 5 victims summed into the same lanes, MMax
// 3, 4, 10 and 14 (both Estrin chain parities), and points whose exact
// d² sits on pd2 or on a victim's rp2Guard while that threshold moves 4
// (pd2) or 2 (rp2Guard) ulps either way, the victim centre, and
// exterior, guard-band and out-of-range lanes in one 8-block. Each
// kernel's guard result must say whether an in-range lane fell below
// rp2Guard, and a lane no victim adds keeps its bits.
func TestLaneKernelsBitIdentical(t *testing.T) {
	if !cpuid.AVX512 {
		t.Skip("cpuid.AVX512 is false (no AVX512F, or the OS does not save the opmask and ZMM state): the AVX-512 kernel is not tested on this host")
	}
	// The centre and the on-edge offsets have few mantissa bits, so
	// px − vx and d² are exact: d² is pd2 (625) or 16 bit for bit.
	vic := geom.Pt(0.5, -1.25)
	const cut = 25.0
	const edge2 = 16.0 // d² of the (±4, 0) offsets, the moved rp2Guard
	at := func(r, ang float64) geom.Point {
		return geom.Pt(vic.X+r*math.Cos(ang), vic.Y+r*math.Sin(ang))
	}
	pool := []geom.Point{
		vic,                                // centre, d² = 0
		at(7, 2.3),                         // exterior
		geom.Pt(vic.X+cut, vic.Y),          // d² = pd2
		at(40, 5.1),                        // out of range
		geom.Pt(vic.X+4, vic.Y),            // d² = 16
		at(1.5, 1.1),                       // interior
		geom.Pt(vic.X-15, vic.Y+20),        // d² = pd2
		at(18, 0.9),                        // exterior
		geom.Pt(vic.X, vic.Y-4),            // d² = 16
		at(3*(1+1e-12), 0.4),               // guard band
		geom.Pt(vic.X+ulps(cut, 4), vic.Y), // just out of range
		at(30, 1.3),                        // out of range
		at(11, 4.4),                        // exterior
	}
	others := []geom.Point{
		geom.Pt(vic.X+7, vic.Y+3), geom.Pt(vic.X-12, vic.Y+5),
		geom.Pt(vic.X+20, vic.Y-14), geom.Pt(vic.X+3, vic.Y+26),
	}
	rng := rand.New(rand.NewSource(27))
	for _, mmax := range []int{3, 4, 10, 14} {
		mo, err := New(material.Baseline(material.BCB), mmax)
		if err != nil {
			t.Fatal(err)
		}
		pack := func(c geom.Point) *VictimRounds {
			var evs []PairEval
			for k := 1 + rng.Intn(4); k > 0; k-- {
				ang := rng.Float64() * 2 * math.Pi
				d := mo.MinPairPitch() + rng.Float64()*15
				evs = append(evs, mo.NewPairEval(c, geom.Pt(c.X+d*math.Cos(ang), c.Y+d*math.Sin(ang))))
			}
			return PackRounds(evs)
		}
		all := []*VictimRounds{pack(vic)}
		for _, c := range others {
			all = append(all, pack(c))
		}
		// Threshold variants: pd2 around 625, or every victim's
		// rp2Guard (one structure, so one value) moved onto d² = 16 and
		// around it.
		type variant struct{ pd2, rp2Guard float64 }
		var variants []variant
		for k := -4; k <= 4; k++ {
			variants = append(variants, variant{ulps(cut*cut, k), all[0].rp2Guard})
		}
		for k := -2; k <= 2; k++ {
			variants = append(variants, variant{cut * cut, ulps(edge2, k)})
		}
		for vi, v := range variants {
			vrs := make([]*VictimRounds, len(all))
			for k, vr := range all {
				cp := *vr
				cp.rp2Guard = v.rp2Guard
				vrs[k] = &cp
			}
			for _, nv := range []int{0, 1, 3, 5} {
				set := vrs[:nv]
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
						bxx, byy, bxy := lanes()
						added := make([]bool, n)
						for k, vr := range set {
							// want[0] covers the AVX-512 part [0, n8),
							// want[1] the trailing block [n8, n4).
							var ga, gt, gb bool
							var want [2]bool
							for i := 0; i < n4; i++ {
								dx, dy := px[i]-vr.vicX, py[i]-vr.vicY
								d2 := dx*dx + dy*dy
								if d2 > v.pd2 {
									continue
								}
								if d2 < vr.rp2Guard {
									w := 0
									if i >= n8 {
										w = 1
									}
									want[w] = true
								} else {
									added[i] = true
								}
							}
							if n8 > 0 {
								ga = accumTileAVX512(vr, px[:n8], py[:n8], axx[:n8], ayy[:n8], axy[:n8], v.pd2)
							}
							if n4 > n8 {
								gt = accumTileAVX2(vr, px[n8:n4], py[n8:n4], axx[n8:n4], ayy[n8:n4], axy[n8:n4], v.pd2)
							}
							if n4 > 0 {
								gb = accumTileAVX2(vr, px[:n4], py[:n4], bxx[:n4], byy[:n4], bxy[:n4], v.pd2)
							}
							if ga != want[0] || gt != want[1] || gb != (want[0] || want[1]) {
								t.Fatalf("MMax %d variant %d victims %d n %d off %d victim %d: guard AVX-512 %v + AVX2 block %v, AVX2 %v, want %v",
									mmax, vi, nv, n, off, k, ga, gt, gb, want)
							}
						}
						for i := 0; i < n; i++ {
							a := [3]float64{axx[i], ayy[i], axy[i]}
							b := [3]float64{bxx[i], byy[i], bxy[i]}
							for j := 0; j < 3; j++ {
								if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
									t.Fatalf("MMax %d variant %d victims %d n %d off %d point %d %v: AVX-512 split %v vs AVX2 %v",
										mmax, vi, nv, n, off, i, geom.Pt(px[i], py[i]), a, b)
								}
								if !added[i] && math.Float64bits(a[j]) != math.Float64bits(init[3*i+j]) {
									t.Fatalf("MMax %d variant %d victims %d n %d off %d point %d %v: lane no victim adds changed to %v",
										mmax, vi, nv, n, off, i, geom.Pt(px[i], py[i]), a)
								}
							}
						}
					}
				}
			}
		}
	}
}
