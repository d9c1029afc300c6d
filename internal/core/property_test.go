package core

import (
	"math"
	"math/rand"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
)

// The analysis must not depend on the order TSVs are listed in.
func TestPermutationInvariance(t *testing.T) {
	st := material.Baseline(material.BCB)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}, {X: 10, Y: 10}, {X: 20, Y: 5}}
	a1, err := New(st, geom.NewPlacement(pts...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	perm := []geom.Point{pts[3], pts[1], pts[4], pts[0], pts[2]}
	a2, err := New(st, geom.NewPlacement(perm...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 50; i++ {
		p := geom.Pt(rng.Float64()*30-5, rng.Float64()*20-5)
		s1 := a1.StressAt(p)
		s2 := a2.StressAt(p)
		tol := 1e-9 * (1 + math.Abs(s1.XX) + math.Abs(s1.YY) + math.Abs(s1.XY))
		if math.Abs(s1.XX-s2.XX) > tol || math.Abs(s1.YY-s2.YY) > tol || math.Abs(s1.XY-s2.XY) > tol {
			t.Fatalf("order dependence at %v: %v vs %v", p, s1, s2)
		}
	}
}

// Thermal linearity: halving ΔT must halve every stress (the whole
// pipeline — Lamé constants, Stage I profile, interactive series — is
// linear in the thermal load).
func TestThermalLinearityEndToEnd(t *testing.T) {
	pl := geom.NewPlacement(geom.Pt(-4, 0), geom.Pt(4, 0))
	full := material.Baseline(material.BCB)
	half := full
	half.DeltaT = full.DeltaT / 2
	aFull, err := New(full, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	aHalf, err := New(half, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 3.5, Y: 1}, {X: -8, Y: 2}} {
		sF := aFull.StressAt(p)
		sH := aHalf.StressAt(p)
		tol := 1e-6 * (1 + math.Abs(sF.XX))
		if math.Abs(sF.XX-2*sH.XX) > tol || math.Abs(sF.YY-2*sH.YY) > tol || math.Abs(sF.XY-2*sH.XY) > tol {
			t.Fatalf("not linear in ΔT at %v: %v vs 2×%v", p, sF, sH)
		}
	}
}

// Translating the whole placement translates the field.
func TestTranslationEquivariance(t *testing.T) {
	st := material.Baseline(material.BCB)
	base, err := New(st, geom.NewPlacement(geom.Pt(-5, 0), geom.Pt(5, 0)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	off := geom.Pt(13.7, -4.2)
	moved, err := New(st, geom.NewPlacement(geom.Pt(-5, 0).Add(off), geom.Pt(5, 0).Add(off)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []geom.Point{{X: 0, Y: 2}, {X: 4, Y: -1}, {X: -9, Y: 3}} {
		a := base.StressAt(p)
		b := moved.StressAt(p.Add(off))
		tol := 1e-9 * (1 + math.Abs(a.XX) + math.Abs(a.YY))
		if math.Abs(a.XX-b.XX) > tol || math.Abs(a.YY-b.YY) > tol || math.Abs(a.XY-b.XY) > tol {
			t.Fatalf("translation broke the field at %v: %v vs %v", p, a, b)
		}
	}
}

// The LS field is trace-free in the substrate (each isolated TSV's
// substrate field has σrr + σθθ = 0), a structural invariant the
// interactive correction deliberately breaks.
func TestLSTraceFreeInSubstrate(t *testing.T) {
	st := material.Baseline(material.BCB)
	pl := geom.NewPlacement(geom.Pt(0, 0), geom.Pt(9, 0), geom.Pt(0, 11))
	an, err := New(st, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		p := geom.Pt(rng.Float64()*30-10, rng.Float64()*30-10)
		if _, d := pl.NearestTSV(p); d < st.RPrime+0.05 {
			continue
		}
		s := an.StressLS(p)
		if math.Abs(s.Trace()) > 1e-2*(1+math.Abs(s.XX)) {
			t.Fatalf("LS trace %v at %v (σ=%v)", s.Trace(), p, s)
		}
	}
}

// Adding a far-away TSV (beyond every cutoff) must not change the local
// analysis.
func TestFarTSVIrrelevant(t *testing.T) {
	st := material.Baseline(material.BCB)
	near, err := New(st, geom.NewPlacement(geom.Pt(-4, 0), geom.Pt(4, 0)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	withFar, err := New(st, geom.NewPlacement(geom.Pt(-4, 0), geom.Pt(4, 0), geom.Pt(200, 200)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Pt(0, 1)
	if near.StressAt(p) != withFar.StressAt(p) {
		t.Error("far TSV changed the local field")
	}
}
