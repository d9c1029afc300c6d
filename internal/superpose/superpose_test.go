package superpose

import (
	"math"
	"math/rand"
	"testing"

	"tsvstress/internal/floats"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/spatial"
	"tsvstress/internal/tensor"
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

// single evaluates the LS field of one TSV centered at c.
func single(ls *LS, p, c geom.Point) tensor.Stress {
	return ls.StressAt(p, spatial.NewIndex([]geom.Point{c}, ls.Cutoff()))
}

// within reports whether got equals want to tol MPa in every component.
func within(got, want tensor.Stress, tol float64) bool {
	return eq(got.XX, want.XX, tol) && eq(got.YY, want.YY, tol) && eq(got.XY, want.XY, tol)
}

func TestSingleTSVMatchesLame(t *testing.T) {
	ls := newLS(t, Options{})
	pl := geom.NewPlacement(geom.Pt(0, 0))
	ix := index(pl)
	for _, p := range []geom.Point{{X: 4, Y: 0}, {X: 0, Y: 6}, {X: 5, Y: 5}, {X: -3, Y: 8}} {
		got := ls.StressAt(p, ix)
		want := ls.Sol.StressAt(p, geom.Pt(0, 0))
		if !within(got, want, 1e-9) {
			t.Errorf("closed form at %v: %v, want %v", p, got, want)
		}
	}
}

// TestProfileAtInterfaces pins the closed-form profile to the Lamé
// solution where a sampled profile fails: at the center, a relative
// 1e-12 either side of both ring interfaces (where σθθ jumps), within
// ±0.005 µm of them, and at random offsets, each in several directions.
func TestProfileAtInterfaces(t *testing.T) {
	for _, liner := range []material.Material{material.BCB, material.SiO2} {
		ls, err := New(material.Baseline(liner), Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := ls.Struct
		radii := []float64{0}
		for _, r := range []float64{st.R, st.RPrime} {
			radii = append(radii, r*(1-1e-12), r*(1+1e-12))
			// Exactly on an interface the oracle's sqrt(d²) < R and the
			// profile's d² < R² may round to different rings; one
			// relative 1e-12 off it they cannot.
			for k := 1; k <= 5; k++ {
				radii = append(radii, r-float64(k)*0.001, r+float64(k)*0.001)
			}
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			radii = append(radii, rng.Float64()*ls.Cutoff())
		}
		c := geom.Pt(3.25, -1.5)
		for _, r := range radii {
			for _, phi := range []float64{0, 0.3, math.Pi / 4, 2, math.Pi, 4.4} {
				p := geom.Pt(c.X+r*math.Cos(phi), c.Y+r*math.Sin(phi))
				got, want := single(ls, p, c), ls.Sol.StressAt(p, c)
				if !within(got, want, 1e-9) {
					t.Fatalf("%s r=%.15g φ=%g: %v, want %v", liner.Name, r, phi, got, want)
				}
			}
		}
	}
}

func TestCutoffRespected(t *testing.T) {
	ls := newLS(t, Options{Cutoff: 10})
	if got := single(ls, geom.Pt(10.01, 0), geom.Pt(0, 0)); got != (tensor.Stress{}) {
		t.Errorf("beyond cutoff should be zero: %v", got)
	}
	if got := single(ls, geom.Pt(9.99, 0), geom.Pt(0, 0)); got.XX == 0 {
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
	want := single(ls, p, geom.Pt(-5, 0)).Add(single(ls, p, geom.Pt(5, 0)))
	if !within(got, want, 1e-9) {
		t.Errorf("superposition broken: %v vs %v", got, want)
	}
}

func TestCenterPoint(t *testing.T) {
	ls := newLS(t, Options{})
	got := single(ls, geom.Pt(0, 0), geom.Pt(0, 0))
	body := ls.Sol.PolarAt(0)
	if !eq(got.XX, body.RR, 1e-12) || !eq(got.YY, body.TT, 1e-12) || got.XY != 0 {
		t.Errorf("center contribution = %v", got)
	}
}

func TestNearVisitsOnlyNearby(t *testing.T) {
	// Only the two TSVs within the 12 µm cutoff of (5, 0) contribute.
	ls := newLS(t, Options{Cutoff: 12})
	pl := geom.NewPlacement(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(40, 0))
	ix := spatial.NewIndex(pl.Centers(), 12)
	p := geom.Pt(5, 0)
	want := ls.Sol.StressAt(p, geom.Pt(0, 0)).Add(ls.Sol.StressAt(p, geom.Pt(10, 0)))
	if got := ls.StressAt(p, ix); !within(got, want, 1e-9) {
		t.Errorf("StressAt = %v, want the two nearby TSVs' %v", got, want)
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
