package interact

import (
	"math"
	"math/rand"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/potential"
)

// TestPackRoundsMatchesIncidentOracle checks PackRounds' recurrences
// against an independent per-round sum: the incident coefficient from
// potential.IncidentCoeff (math.Pow), the axis angle from math.Atan2
// and cos/sin(mψ) from math.Cos/Sin, times the model's unit scattered
// coefficients. Both the incident aggregates ci, si and every lane of
// the Horner slab must agree to 1e-12 of the summed magnitudes (the
// lattice sets cancel some harmonics exactly, so |ci| itself may be 0).
func TestPackRoundsMatchesIncidentOracle(t *testing.T) {
	const tol = 1e-12
	st := material.Baseline(material.BCB)
	vic := geom.Pt(3.25, -7.5)
	rng := rand.New(rand.NewSource(41))
	var random []geom.Point
	for len(random) < 24 {
		ang := rng.Float64() * 2 * math.Pi
		d := 2*st.RPrime + rng.Float64()*20
		random = append(random, geom.Pt(vic.X+d*math.Cos(ang), vic.Y+d*math.Sin(ang)))
	}
	var lattice []geom.Point // a 10 µm array around the victim, within 25 µm
	for i := -2; i <= 2; i++ {
		for j := -2; j <= 2; j++ {
			if (i != 0 || j != 0) && math.Hypot(float64(i), float64(j))*10 <= 25 {
				lattice = append(lattice, geom.Pt(vic.X+10*float64(i), vic.Y+10*float64(j)))
			}
		}
	}
	sets := map[string][]geom.Point{"random": random, "lattice": lattice}

	for _, mmax := range []int{2, 3, 10, 14} {
		mo, err := New(st, mmax)
		if err != nil {
			t.Fatal(err)
		}
		for name, aggs := range sets {
			vr := mo.PackRounds(vic, aggs)
			if vr == nil || vr.NumRounds() != len(aggs) {
				t.Fatalf("MMax %d %s: packed %v rounds of %d", mmax, name, vr, len(aggs))
			}
			for i := 0; i < mmax-1; i++ {
				m := float64(i + 2)
				var ci, si, mag float64
				for _, agg := range aggs {
					scale := potential.IncidentCoeff(i, mo.Lame.K, st.RPrime, agg.Dist(vic))
					psi := math.Atan2(agg.Y-vic.Y, agg.X-vic.X)
					ci += scale * math.Cos(m*psi)
					si += scale * math.Sin(m*psi)
					mag += math.Abs(scale)
				}
				check := func(what string, got, want, norm float64) {
					if d := math.Abs(got - want); d > tol*norm {
						t.Errorf("MMax %d %s m=%d %s: packed %.17g, oracle %.17g (diff %.3g, bound %.3g)",
							mmax, name, i+2, what, got, want, d, tol*norm)
					}
				}
				check("ci", vr.ci[i], ci, mag)
				check("si", vr.si[i], si, mag)
				sub := mo.units[i].sub
				a, b := math.Abs(sub.ANeg)*mag, math.Abs(sub.BNeg)*mag
				h := vr.step(i)
				check("γRe", h[0], sub.ANeg*ci, a)
				check("γIm", h[1], -sub.ANeg*si, a)
				check("m·γRe", h[2], m*sub.ANeg*ci, m*a)
				check("m·γIm", h[3], -m*sub.ANeg*si, m*a)
				check("βRe", h[4], sub.BNeg*ci, b)
				check("βIm", h[5], -sub.BNeg*si, b)
			}
		}
	}
}
