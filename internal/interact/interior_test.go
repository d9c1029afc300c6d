package interact

import (
	"math"
	"math/rand"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/tensor"
)

// interiorTol is the engine-wide parity budget in MPa.
const interiorTol = 1e-9

func maxComponentDiff(a, b tensor.Stress) float64 {
	return math.Max(math.Abs(a.XX-b.XX), math.Max(math.Abs(a.YY-b.YY), math.Abs(a.XY-b.XY)))
}

// TestInteriorAggregateMatchesPairStress is the property test for the
// aggregated interior evaluation: over seeded victims with random round
// sets, the packed AccumulateAt and AccumulateTile at points inside the
// victim footprint must match summing the per-round oracle
// Model.PairStress, for both liner materials and several MMax. The
// point mix covers the body, the liner, the region interfaces ρ = k and
// ρ = k(1±1e-12), the footprint edge ρ = 1−1e-12 and the center r = 0.
func TestInteriorAggregateMatchesPairStress(t *testing.T) {
	rng := rand.New(rand.NewSource(20130602))
	worst, n := 0.0, 0
	for _, liner := range []material.Material{material.BCB, material.SiO2} {
		for _, mmax := range []int{2, 3, DefaultMMax, 14} {
			mo, err := New(material.Baseline(liner), mmax)
			if err != nil {
				t.Fatal(err)
			}
			rp, k := mo.Struct.RPrime, mo.Struct.K()
			for trial := 0; trial < 25; trial++ {
				vic := geom.Pt(rng.Float64()*40-20, rng.Float64()*40-20)
				var aggs []geom.Point
				var evs []PairEval
				for len(aggs) < 1+rng.Intn(8) {
					ang := rng.Float64() * 2 * math.Pi
					d := mo.MinPairPitch() * (1 + rng.Float64()*4)
					a := geom.Pt(vic.X+d*math.Cos(ang), vic.Y+d*math.Sin(ang))
					aggs = append(aggs, a)
					evs = append(evs, mo.NewPairEval(vic, a))
				}
				vr := PackRounds(evs)
				if vr.NumRounds() != len(aggs) {
					t.Fatalf("NumRounds = %d, want %d", vr.NumRounds(), len(aggs))
				}
				rhos := []float64{0, k, k * (1 - 1e-12), k * (1 + 1e-12), 1 - 1e-12}
				for i := 0; i < 20; i++ {
					rhos = append(rhos, rng.Float64())
				}
				for _, rho := range rhos {
					ang := rng.Float64() * 2 * math.Pi
					p := geom.Pt(vic.X+rho*rp*math.Cos(ang), vic.Y+rho*rp*math.Sin(ang))
					if rho == 0 {
						p = vic
					}
					if p.Sub(vic).Norm() >= rp {
						continue // rounding put the point on the footprint edge
					}
					var want tensor.Stress
					for _, a := range aggs {
						want = want.Add(mo.PairStress(p, vic, a))
					}
					var got tensor.Stress
					vr.AccumulateAt(p.X, p.Y, &got)
					sxx, syy, sxy := []float64{0}, []float64{0}, []float64{0}
					vr.AccumulateTile([]float64{p.X}, []float64{p.Y}, sxx, syy, sxy, math.Inf(1))
					lane := tensor.Stress{XX: sxx[0], YY: syy[0], XY: sxy[0]}
					for _, s := range []tensor.Stress{got, lane} {
						d := maxComponentDiff(s, want)
						if !(d <= interiorTol) {
							t.Fatalf("%s MMax %d trial %d at ρ=%.17g: aggregated %+v vs summed PairStress %+v (diff %g MPa)",
								liner.Name, mmax, trial, rho, s, want, d)
						}
						worst = math.Max(worst, d)
					}
					n++
				}
			}
		}
	}
	t.Logf("%d interior points, worst aggregated-vs-PairStress diff %.3g MPa", n, worst)
}

// TestPairStressCenterLimit pins the r = 0 branch of PairStress: the
// value at the victim center is the limit of the body field, so points
// approaching the center along any direction must converge to it, and
// the field there is σxx = −B, σyy = B in the round's axis frame.
func TestPairStressCenterLimit(t *testing.T) {
	mo, err := New(material.Baseline(material.BCB), 0)
	if err != nil {
		t.Fatal(err)
	}
	rp := mo.Struct.RPrime
	vic := geom.Pt(1.5, -2.25)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		ang := rng.Float64() * 2 * math.Pi
		d := mo.MinPairPitch() * (1 + rng.Float64()*3)
		agg := geom.Pt(vic.X+d*math.Cos(ang), vic.Y+d*math.Sin(ang))
		at := mo.PairStress(vic, vic, agg)
		if at == (tensor.Stress{}) {
			t.Fatal("center stress is zero; the m = 2 body term must survive")
		}
		// In the axis frame the center tensor is diag(−B, B).
		loc := at.ToPolar(ang)
		if math.Abs(loc.RR+loc.TT) > interiorTol || math.Abs(loc.RT) > interiorTol {
			t.Errorf("trial %d: axis-frame center tensor %+v is not diag(−B, B)", trial, loc)
		}
		for i := 0; i < 8; i++ {
			phi := rng.Float64() * 2 * math.Pi
			r := 1e-12 * rp
			p := geom.Pt(vic.X+r*math.Cos(phi), vic.Y+r*math.Sin(phi))
			if dd := maxComponentDiff(mo.PairStress(p, vic, agg), at); dd > interiorTol {
				t.Errorf("trial %d: PairStress at r=%g differs from the center value by %g MPa", trial, r, dd)
			}
		}
	}
}
