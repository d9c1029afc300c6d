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

// TestAccumTileBlockEdges pins AccumTile against the per-point sum of
// At where a four-point lane kernel can go wrong: every lane length
// 0–13 (whole blocks plus the n mod 4 tail) at every offset into a
// point pool, 0 to 5 candidates, points exactly at the cutoff and 4
// ulps either side of it, exactly at both ring interfaces and a few
// ulps either side, the candidate's own centre (whose d² = 0 makes the
// lane's b/d⁴ an infinity the body blend must drop), and body, liner,
// substrate and out-of-range points sharing one block. A point with no
// candidate in range must keep its accumulator bits.
func TestAccumTileBlockEdges(t *testing.T) {
	ls := newLS(t, Options{})
	prof := ls.Profile()
	// The centre and every on-boundary offset have few mantissa bits,
	// so px − cx and d² are exact: d² == cut2, r2 and rPrime2 hold bit
	// for bit (R = 2.5, R′ = 3).
	c := geom.Pt(0.5, -1.25)
	const cut = DefaultCutoff
	cut2 := cut * cut
	st := ls.Struct
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
	at := func(r, ang float64) geom.Point {
		return geom.Pt(c.X+r*math.Cos(ang), c.Y+r*math.Sin(ang))
	}
	pool := []geom.Point{
		c,                                    // centre, d² = 0
		geom.Pt(c.X+st.R, c.Y),               // d² = r2 exactly: liner
		geom.Pt(c.X+down(st.R, 2), c.Y),      // just inside the body
		geom.Pt(c.X, c.Y+up(st.R, 2)),        // just inside the liner
		geom.Pt(c.X-st.RPrime, c.Y),          // d² = rPrime2 exactly: substrate
		geom.Pt(c.X, c.Y-down(st.RPrime, 2)), // just inside the liner
		geom.Pt(c.X+up(st.RPrime, 2), c.Y),   // just inside the substrate
		geom.Pt(c.X+cut, c.Y),                // d² = cut2 exactly
		geom.Pt(c.X+up(cut, 4), c.Y),         // d² ≈ cut2·(1+1e-15)
		geom.Pt(c.X-down(cut, 4), c.Y),       // d² ≈ cut2·(1−1e-15)
		geom.Pt(c.X-15, c.Y+20),              // d² = cut2 exactly
		at(1.2, 0.7),                         // body
		at(2.8, 2.1),                         // liner
		at(9, 4.0),                           // substrate
		at(40, 5.1),                          // out of range
	}
	// Candidate sets: none, the centre alone, and the centre followed by
	// neighbours that put several candidates in range of some points and
	// none of others.
	cands := [][]geom.Point{
		nil,
		{c},
		{c, geom.Pt(c.X+10, c.Y+3), geom.Pt(c.X-60, c.Y)},
		{geom.Pt(c.X-7, c.Y-7), c, geom.Pt(c.X+2.75, c.Y), geom.Pt(c.X+30, c.Y+30), geom.Pt(c.X+up(cut, 1), c.Y+cut)},
	}
	rng := rand.New(rand.NewSource(11))
	worst := 0.0
	for ci, cs := range cands {
		cx, cy := make([]float64, len(cs)), make([]float64, len(cs))
		for k, q := range cs {
			cx[k], cy[k] = q.X, q.Y
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
				prof.AccumTile(cx, cy, px, py, sxx, syy, sxy, cut2)
				for i := 0; i < n; i++ {
					want := [3]float64{init[3*i], init[3*i+1], init[3*i+2]}
					inRange := false
					for k := range cx {
						dx, dy := px[i]-cx[k], py[i]-cy[k]
						if d2 := dx*dx + dy*dy; d2 <= cut2 {
							xx, yy, xy := prof.At(dx, dy, d2)
							want[0] += xx
							want[1] += yy
							want[2] += xy
							inRange = true
						}
					}
					got := [3]float64{sxx[i], syy[i], sxy[i]}
					for j := 0; j < 3; j++ {
						if !inRange && math.Float64bits(got[j]) != math.Float64bits(init[3*i+j]) {
							t.Fatalf("cands %d n %d off %d point %d: out-of-range lane changed to %v", ci, n, off, i, got)
						}
						d := math.Abs(got[j] - want[j])
						worst = math.Max(worst, d)
						if !(d <= 1e-11) {
							t.Fatalf("cands %d n %d off %d point %d (%v): tile %v vs per-point %v",
								ci, n, off, i, geom.Pt(px[i], py[i]), got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("worst tile-vs-per-point diff: %.3g MPa", worst)
}

// TestAccumTileLaneMismatch pins the defensive length check.
func TestAccumTileLaneMismatch(t *testing.T) {
	prof := newLS(t, Options{}).Profile()
	defer func() {
		if recover() == nil {
			t.Error("mismatched lane lengths must panic")
		}
	}()
	four := make([]float64, 4)
	prof.AccumTile(four[:1], four[:1], four, four[:3], four, four, four, 625)
}
