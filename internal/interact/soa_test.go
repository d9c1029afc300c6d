package interact

import (
	"math"
	"math/rand"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/tensor"
)

// packRandom builds a VictimRounds with nAgg random aggressors around a
// random victim center.
func packRandom(t *testing.T, mo *Model, rng *rand.Rand, nAgg int) *VictimRounds {
	t.Helper()
	vic := geom.Pt(rng.Float64()*40-20, rng.Float64()*40-20)
	aggs := make([]geom.Point, 0, nAgg)
	for len(aggs) < nAgg {
		ang := rng.Float64() * 2 * math.Pi
		d := mo.MinPairPitch() + rng.Float64()*20
		aggs = append(aggs, geom.Pt(vic.X+d*math.Cos(ang), vic.Y+d*math.Sin(ang)))
	}
	vr := mo.PackRounds(vic, aggs)
	if vr == nil {
		t.Fatal("PackRounds returned nil for non-degenerate rounds")
	}
	return vr
}

// TestAccumulateTileMatchesScalar pins the SoA complex-Horner lane
// kernel against the scalar AccumulateAt oracle over randomized round
// sets and point mixes (far, near-cutoff, footprint-boundary, interior
// and center points), at the engine-wide 1e-9 MPa budget.
func TestAccumulateTileMatchesScalar(t *testing.T) {
	mo, err := New(material.Baseline(material.BCB), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rp := mo.Struct.RPrime
	const pd2 = 25 * 25
	worst := 0.0
	for trial := 0; trial < 20; trial++ {
		vr := packRandom(t, mo, rng, 1+rng.Intn(6))
		vic := vr.Vic()
		var px, py []float64
		for i := 0; i < 64; i++ {
			r := rng.Float64() * 30
			switch i % 4 {
			case 1:
				r = rng.Float64() * rp * 1.5 // interior and boundary band
			case 2:
				r = rp * (1 + (rng.Float64()-0.5)*1e-6) // footprint edge
			case 3:
				r = 24 + rng.Float64()*2 // cutoff edge
			}
			ang := rng.Float64() * 2 * math.Pi
			px = append(px, vic.X+r*math.Cos(ang))
			py = append(py, vic.Y+r*math.Sin(ang))
		}
		px = append(px, vic.X, vic.X+rp)
		py = append(py, vic.Y, vic.Y)
		n := len(px)
		sxx, syy, sxy := make([]float64, n), make([]float64, n), make([]float64, n)
		vr.AccumulateTile(px, py, sxx, syy, sxy, pd2)
		for i := 0; i < n; i++ {
			dx, dy := px[i]-vic.X, py[i]-vic.Y
			var want tensor.Stress
			if dx*dx+dy*dy <= pd2 {
				vr.AccumulateAt(px[i], py[i], &want)
			}
			for _, d := range []float64{sxx[i] - want.XX, syy[i] - want.YY, sxy[i] - want.XY} {
				if math.Abs(d) > worst {
					worst = math.Abs(d)
				}
				if math.Abs(d) > 1e-9 {
					t.Fatalf("trial %d point %d (r=%g): SoA (%g,%g,%g) vs scalar %+v",
						trial, i, math.Hypot(dx, dy), sxx[i], syy[i], sxy[i], want)
				}
			}
		}
	}
	t.Logf("worst SoA-vs-scalar diff: %.3g MPa", worst)
}

// TestAccumulateTileBlockEdges pins AccumulateTile against per-point
// AccumulateAt where a four-point lane kernel can go wrong: every lane
// length 0–13 (whole blocks plus the n mod 4 tail), points exactly at
// the cutoff and a few ulps either side of it, points R′(1±1e-12) in
// the footprint guard band, the victim center (whose d² = 0 must not
// spoil its block's other points), interior and exterior points sharing
// one block, and MMax 2, 3, 10 and 14. Out-of-range points must keep
// their accumulator bits.
func TestAccumulateTileBlockEdges(t *testing.T) {
	// The victim center and the cutoff edge points have few mantissa
	// bits, so px − vx and d² are exact and d² == pd2 holds bit for bit.
	vic := geom.Pt(0.5, -1.25)
	const cut = 25.0
	pd2 := cut * cut
	worst := 0.0
	up := func(x float64, k int) float64 {
		for ; k > 0; k-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		return x
	}
	down := func(x float64, k int) float64 {
		for ; k > 0; k-- {
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x
	}
	for _, mmax := range []int{2, 3, 10, 14} {
		mo, err := New(material.Baseline(material.BCB), mmax)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(mmax)))
		rp := mo.Struct.RPrime
		var aggs []geom.Point
		for k := 0; k < 4; k++ {
			ang := rng.Float64() * 2 * math.Pi
			d := mo.MinPairPitch() + rng.Float64()*15
			aggs = append(aggs, geom.Pt(vic.X+d*math.Cos(ang), vic.Y+d*math.Sin(ang)))
		}
		vr := mo.PackRounds(vic, aggs)
		at := func(r, ang float64) geom.Point {
			return geom.Pt(vic.X+r*math.Cos(ang), vic.Y+r*math.Sin(ang))
		}
		pool := []geom.Point{
			at(0.5*rp, 1.1),                    // interior
			at(7, 2.3),                         // exterior
			vic,                                // center, d² = 0
			at(rp*(1+1e-12), 0.4),              // guard band, outside
			at(rp*(1-1e-12), 3.9),              // guard band, inside
			geom.Pt(vic.X+cut, vic.Y),          // d² = pd2 exactly
			geom.Pt(vic.X+up(cut, 4), vic.Y),   // d² ≈ pd2·(1+1e-15)
			geom.Pt(vic.X-down(cut, 4), vic.Y), // d² ≈ pd2·(1−1e-15)
			at(40, 5.1),                        // far out of range
			geom.Pt(vic.X-15, vic.Y+20),        // d² = pd2 exactly
			at(rp, 4.4),                        // footprint boundary
			at(18, 0.9),                        // exterior
			at(0.99*rp, 1.7),                   // interior, liner
		}
		for n := 0; n <= 13; n++ {
			for off := 0; off < len(pool); off++ {
				px, py := make([]float64, n), make([]float64, n)
				sxx, syy, sxy := make([]float64, n), make([]float64, n), make([]float64, n)
				init := make([]float64, 3*n)
				for i := 0; i < n; i++ {
					p := pool[(off+i)%len(pool)]
					px[i], py[i] = p.X, p.Y
					sxx[i], syy[i], sxy[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
					init[3*i], init[3*i+1], init[3*i+2] = sxx[i], syy[i], sxy[i]
				}
				vr.AccumulateTile(px, py, sxx, syy, sxy, pd2)
				for i := 0; i < n; i++ {
					dx, dy := px[i]-vic.X, py[i]-vic.Y
					got := [3]float64{sxx[i], syy[i], sxy[i]}
					if dx*dx+dy*dy > pd2 {
						for c := 0; c < 3; c++ {
							if math.Float64bits(got[c]) != math.Float64bits(init[3*i+c]) {
								t.Fatalf("MMax %d n %d off %d point %d (d²=%g): out-of-range lane changed to %v",
									mmax, n, off, i, dx*dx+dy*dy, got)
							}
						}
						continue
					}
					var s tensor.Stress
					vr.AccumulateAt(px[i], py[i], &s)
					want := [3]float64{init[3*i] + s.XX, init[3*i+1] + s.YY, init[3*i+2] + s.XY}
					for c := 0; c < 3; c++ {
						worst = math.Max(worst, math.Abs(got[c]-want[c]))
						if !(math.Abs(got[c]-want[c]) <= 1e-11) {
							t.Fatalf("MMax %d n %d off %d point %d (r=%g): tile %v vs scalar %v",
								mmax, n, off, i, math.Hypot(dx, dy), got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("worst tile-vs-scalar diff: %.3g MPa", worst)
}

// TestAccumulateTileLaneMismatch pins the defensive length check.
func TestAccumulateTileLaneMismatch(t *testing.T) {
	mo, err := New(material.Baseline(material.BCB), 0)
	if err != nil {
		t.Fatal(err)
	}
	vr := mo.PackRounds(geom.Pt(0, 0), []geom.Point{geom.Pt(10, 0)})
	defer func() {
		if recover() == nil {
			t.Error("mismatched lane lengths must panic")
		}
	}()
	vr.AccumulateTile(make([]float64, 4), make([]float64, 3), make([]float64, 4), make([]float64, 4), make([]float64, 4), 625)
}
