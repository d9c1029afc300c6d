package superpose

import (
	"math"
	"testing"
	"tsvstress/internal/floats"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/spatial"
)

func eq(a, b, tol float64) bool { return floats.AlmostEqual(a, b, tol) }

func newLS(t *testing.T, opt Options) *LS {
	t.Helper()
	ls, err := New(material.Baseline(material.BCB), opt)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

func index(pl *geom.Placement) *spatial.Index {
	return spatial.NewIndex(pl.Centers(), DefaultCutoff)
}

func TestNewRejectsBadStructure(t *testing.T) {
	st := material.Baseline(material.BCB)
	st.RPrime = 1
	if _, err := New(st, Options{}); err == nil {
		t.Fatal("invalid structure should fail")
	}
}

func TestSingleTSVMatchesLame(t *testing.T) {
	ls := newLS(t, Options{})
	pl := geom.NewPlacement(geom.Pt(0, 0))
	ix := index(pl)
	for _, p := range []geom.Point{{X: 4, Y: 0}, {X: 0, Y: 6}, {X: 5, Y: 5}, {X: -3, Y: 8}} {
		got := ls.StressAt(p, ix)
		want := ls.Sol.StressAt(p, geom.Pt(0, 0))
		scale := math.Max(1, math.Abs(want.XX)+math.Abs(want.YY))
		if !eq(got.XX, want.XX, 1e-3*scale) || !eq(got.YY, want.YY, 1e-3*scale) || !eq(got.XY, want.XY, 1e-3*scale) {
			t.Errorf("table look-up at %v: %v, want %v", p, got, want)
		}
	}
}

func TestCutoffRespected(t *testing.T) {
	ls := newLS(t, Options{Cutoff: 10})
	if got := ls.Contribution(geom.Pt(10.01, 0), geom.Pt(0, 0)); got.XX != 0 || got.YY != 0 {
		t.Errorf("beyond cutoff should be zero: %v", got)
	}
	if got := ls.Contribution(geom.Pt(9.99, 0), geom.Pt(0, 0)); got.XX == 0 {
		t.Error("inside cutoff should be nonzero")
	}
	if ls.Cutoff() != 10 {
		t.Errorf("Cutoff = %v", ls.Cutoff())
	}
}

func TestSuperpositionLinearity(t *testing.T) {
	// LS of two TSVs must equal the sum of individual contributions.
	ls := newLS(t, Options{})
	pl := geom.NewPlacement(geom.Pt(-5, 0), geom.Pt(5, 0))
	ix := index(pl)
	p := geom.Pt(1, 2)
	got := ls.StressAt(p, ix)
	want := ls.Contribution(p, geom.Pt(-5, 0)).Add(ls.Contribution(p, geom.Pt(5, 0)))
	if !eq(got.XX, want.XX, 1e-9) || !eq(got.YY, want.YY, 1e-9) || !eq(got.XY, want.XY, 1e-9) {
		t.Errorf("superposition broken: %v vs %v", got, want)
	}
}

func TestTableAccuracy(t *testing.T) {
	// The default 0.01 µm table must track the exact profile to better
	// than 0.1% of the local stress across the whole radial range.
	ls := newLS(t, Options{})
	for r := 0.05; r < 25; r += 0.0317 {
		got := ls.Contribution(geom.Pt(r, 0), geom.Pt(0, 0))
		want := ls.Sol.StressAt(geom.Pt(r, 0), geom.Pt(0, 0))
		scale := math.Max(0.5, math.Abs(want.XX))
		if !eq(got.XX, want.XX, 1e-3*scale) {
			t.Fatalf("r=%g: table %v vs exact %v", r, got.XX, want.XX)
		}
	}
}

func TestCenterPoint(t *testing.T) {
	ls := newLS(t, Options{})
	got := ls.Contribution(geom.Pt(0, 0), geom.Pt(0, 0))
	body := ls.Sol.PolarAt(0)
	if !eq(got.XX, body.RR, 1e-12) || !eq(got.YY, body.TT, 1e-12) {
		t.Errorf("center contribution = %v", got)
	}
}

func TestNearVisitsOnlyNearby(t *testing.T) {
	ls := newLS(t, Options{Cutoff: 12})
	pl := geom.NewPlacement(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(40, 0))
	ix := spatial.NewIndex(pl.Centers(), 12)
	var visited int
	ls.Near(geom.Pt(5, 0), ix, func(geom.Point, float64) { visited++ })
	if visited != 2 {
		t.Errorf("visited %d TSVs, want 2", visited)
	}
}

func TestManyTSVGridFiniteAndSymmetric(t *testing.T) {
	// 5×5 grid at 10 µm pitch: stress at the grid center must have the
	// symmetry of the placement (σxx = σyy by 90° symmetry).
	var pts []geom.Point
	for i := -2; i <= 2; i++ {
		for j := -2; j <= 2; j++ {
			pts = append(pts, geom.Pt(float64(i)*10, float64(j)*10))
		}
	}
	pl := geom.NewPlacement(pts...)
	ls := newLS(t, Options{})
	ix := index(pl)
	s := ls.StressAt(geom.Pt(5, 5), ix) // center of a grid cell
	if math.IsNaN(s.XX) || math.IsInf(s.XX, 0) {
		t.Fatal("non-finite stress")
	}
	if !eq(s.XX, s.YY, 1e-9) {
		t.Errorf("diagonal symmetry broken: σxx=%v σyy=%v", s.XX, s.YY)
	}
}
