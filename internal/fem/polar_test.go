package fem

import (
	"math"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/lame"
	"tsvstress/internal/material"
)

func TestBuildRings(t *testing.T) {
	rs := buildRings(1.2, 6.0, 0.1, 2.5, 3.0)
	if rs[0] != 1.2 || rs[len(rs)-1] != 6.0 {
		t.Fatalf("ring endpoints %v..%v", rs[0], rs[len(rs)-1])
	}
	found25, found30 := false, false
	for i := 1; i < len(rs); i++ {
		if rs[i] <= rs[i-1] {
			t.Fatal("rings not strictly increasing")
		}
		if math.Abs(rs[i]-2.5) < 1e-12 {
			found25 = true
		}
		if math.Abs(rs[i]-3.0) < 1e-12 {
			found30 = true
		}
	}
	if !found25 || !found30 {
		t.Error("interface radii not snapped onto rings")
	}
	// Interfaces outside the annulus are skipped.
	rs = buildRings(3.5, 6.0, 0.1, 2.5, 3.0)
	if rs[0] != 3.5 {
		t.Error("inner radius wrong")
	}
}

func TestPolarPatchValidation(t *testing.T) {
	st := material.Baseline(material.BCB)
	pl := geom.NewPlacement(geom.Pt(0, 0))
	bc := func(geom.Point) (float64, float64) { return 0, 0 }
	if _, err := SolvePolarPatch(pl, st, geom.Pt(0, 0), PolarPatchOptions{}); err == nil {
		t.Error("missing BoundaryDisp should fail")
	}
	if _, err := SolvePolarPatch(pl, st, geom.Pt(0, 0), PolarPatchOptions{RIn: 2.6, BoundaryDisp: bc}); err == nil {
		t.Error("inner radius beyond body should fail")
	}
	if _, err := SolvePolarPatch(pl, st, geom.Pt(0, 0), PolarPatchOptions{ROut: 2.9, BoundaryDisp: bc}); err == nil {
		t.Error("outer radius inside liner should fail")
	}
}

// Feeding the exact analytic boundary displacement must reproduce the
// analytic stress through the annulus to sub-percent accuracy — the
// polar mesh resolves the circular interfaces exactly.
func TestPolarPatchAnalyticDrive(t *testing.T) {
	st := material.Baseline(material.BCB)
	pl := geom.NewPlacement(geom.Pt(0, 0))
	sol, err := lame.Solve(st)
	if err != nil {
		t.Fatal(err)
	}
	bc := func(p geom.Point) (float64, float64) {
		// The solver works in the perturbation convention: subtract the
		// substrate free thermal expansion αsΔT·r in every region.
		r := p.Norm()
		u := sol.DisplacementAt(r) - st.Substrate.CTE*st.DeltaT*r
		return u * p.X / r, u * p.Y / r
	}
	pp, err := SolvePolarPatch(pl, st, geom.Pt(0, 0), PolarPatchOptions{BoundaryDisp: bc, DR: 0.05, NTheta: 96})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{3.05, 3.3, 4.0, 5.0} {
		for _, th := range []float64{0, 0.8, 2.1, 4.4} {
			p := geom.Pt(r*math.Cos(th), r*math.Sin(th))
			got := pp.StressAt(p)
			want := sol.StressAt(p, geom.Pt(0, 0))
			scale := math.Abs(want.XX) + math.Abs(want.YY) + math.Abs(want.XY)
			rel := (math.Abs(got.XX-want.XX) + math.Abs(got.YY-want.YY) + math.Abs(got.XY-want.XY)) / scale
			if rel > 0.01 {
				t.Errorf("r=%g θ=%.1f: rel error %.4f (got %v want %v)", r, th, rel, got, want)
			}
		}
	}
	if pp.Stats.DOF <= 0 || pp.Stats.Iterations <= 0 {
		t.Errorf("stats = %+v", pp.Stats)
	}
}

// The production submodel with polar patches must hit the documented
// accuracy on the critical ring: ≲5% per component, ≲1.5% in von Mises
// (at quick global resolution slightly looser).
func TestPolarSubmodelRingAccuracy(t *testing.T) {
	st := material.Baseline(material.BCB)
	pl := geom.NewPlacement(geom.Pt(0, 0))
	sub, err := SolveSubmodel(pl, st, square(t, 18), SubmodelOptions{GlobalH: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := lame.Solve(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{3.05, 3.3} {
		for k := 0; k < 16; k++ {
			th := 2 * math.Pi * float64(k) / 16
			p := geom.Pt(r*math.Cos(th), r*math.Sin(th))
			got := sub.StressAt(p)
			want := sol.StressAt(p, geom.Pt(0, 0))
			vmRel := math.Abs(got.VonMises()-want.VonMises()) / want.VonMises()
			if vmRel > 0.03 {
				t.Errorf("r=%g θ=%.2f: von Mises rel error %.4f", r, th, vmRel)
			}
		}
	}
}

// Neighbour intrusion: a second TSV close enough that its liner reaches
// the first TSV's annulus must not break the solve, and the field must
// stay symmetric under the pair's mirror symmetry.
func TestPolarPatchNeighbourIntrusion(t *testing.T) {
	st := material.Baseline(material.BCB)
	d := 7.0 // annulus capped at d − R' − 0.2 = 3.8
	pl := geom.NewPlacement(geom.Pt(-d/2, 0), geom.Pt(d/2, 0))
	sub, err := SolveSubmodel(pl, st, square(t, 15), SubmodelOptions{GlobalH: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	a := sub.StressAt(geom.Pt(-d/2, 3.2))
	b := sub.StressAt(geom.Pt(d/2, 3.2))
	tol := 0.03 * (math.Abs(a.XX) + math.Abs(a.YY) + math.Abs(a.XY))
	if math.Abs(a.XX-b.XX) > tol || math.Abs(a.YY-b.YY) > tol || math.Abs(a.XY+b.XY) > tol {
		t.Errorf("mirror symmetry broken: %v vs %v", a, b)
	}
}
