package core

import (
	"math"
	"testing"
	"tsvstress/internal/floats"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/tensor"
)

func eq(a, b, tol float64) bool { return floats.AlmostEqual(a, b, tol) }

func pairAnalyzer(t *testing.T, d float64) *Analyzer {
	t.Helper()
	pl := geom.NewPlacement(geom.Pt(-d/2, 0), geom.Pt(d/2, 0))
	a, err := New(material.Baseline(material.BCB), pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRejectsOverlappingTSVs(t *testing.T) {
	pl := geom.NewPlacement(geom.Pt(0, 0), geom.Pt(4, 0)) // pitch < 2R' = 6
	if _, err := New(material.Baseline(material.BCB), pl, Options{}); err == nil {
		t.Fatal("overlapping TSVs should be rejected")
	}
}

func TestDefaults(t *testing.T) {
	a := pairAnalyzer(t, 10)
	opt := a.Options()
	if opt.LSCutoff != 25 || opt.PairPitchCutoff != 25 || opt.PairDistCutoff != 25 || opt.MMax != 10 {
		t.Errorf("defaults = %+v", opt)
	}
	if opt.Workers < 1 {
		t.Error("workers must be >= 1")
	}
}

func TestPairRoundCount(t *testing.T) {
	// Two TSVs within pitch cutoff: 2 rounds (each is victim once).
	a := pairAnalyzer(t, 10)
	if a.NumPairRounds() != 2 {
		t.Errorf("rounds = %d, want 2", a.NumPairRounds())
	}
	// Beyond the pitch cutoff: no rounds.
	pl := geom.NewPlacement(geom.Pt(0, 0), geom.Pt(30, 0))
	far, err := New(material.Baseline(material.BCB), pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if far.NumPairRounds() != 0 {
		t.Errorf("far rounds = %d, want 0", far.NumPairRounds())
	}
	// Three TSVs in a tight row: pairs (0,1),(1,2),(0,2) → 6 rounds.
	pl3 := geom.NewPlacement(geom.Pt(0, 0), geom.Pt(8, 0), geom.Pt(16, 0))
	a3, err := New(material.Baseline(material.BCB), pl3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a3.NumPairRounds() != 6 {
		t.Errorf("rounds = %d, want 6", a3.NumPairRounds())
	}
}

func TestStressDecomposition(t *testing.T) {
	a := pairAnalyzer(t, 9)
	for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 2}, {X: -7, Y: 1}} {
		full := a.StressAt(p)
		sum := a.StressLS(p).Add(a.Interactive(p))
		if !eq(full.XX, sum.XX, 1e-12) || !eq(full.YY, sum.YY, 1e-12) || !eq(full.XY, sum.XY, 1e-12) {
			t.Errorf("decomposition broken at %v", p)
		}
	}
}

func TestInteractiveReducesMidpointSigmaXX(t *testing.T) {
	// The BCB pair: LS overestimates σxx between TSVs (Fig. 3); the
	// Stage II correction must be negative there and grow as the pitch
	// shrinks.
	corr8 := pairAnalyzer(t, 8).Interactive(geom.Pt(0, 0)).XX
	corr12 := pairAnalyzer(t, 12).Interactive(geom.Pt(0, 0)).XX
	if corr8 >= 0 || corr12 >= 0 {
		t.Fatalf("corrections should be negative: d=8 → %g, d=12 → %g", corr8, corr12)
	}
	if math.Abs(corr8) <= math.Abs(corr12) {
		t.Errorf("correction should grow as pitch shrinks: |%g| vs |%g|", corr8, corr12)
	}
}

func TestMapModesMatchPointwise(t *testing.T) {
	a := pairAnalyzer(t, 10)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 1}, {X: -8, Y: -2}, {X: 5, Y: 5}, {X: 20, Y: 0}}
	ls := a.Map(pts, ModeLS)
	full := a.Map(pts, ModeFull)
	inter := a.Map(pts, ModeInteractive)
	for i, p := range pts {
		if ls[i] != a.StressLS(p) {
			t.Errorf("ModeLS mismatch at %v", p)
		}
		if full[i] != a.StressAt(p) {
			t.Errorf("ModeFull mismatch at %v", p)
		}
		if inter[i] != a.Interactive(p) {
			t.Errorf("ModeInteractive mismatch at %v", p)
		}
	}
}

func TestMapSerialEqualsParallel(t *testing.T) {
	d := 10.0
	pl := geom.NewPlacement(geom.Pt(-d/2, 0), geom.Pt(d/2, 0), geom.Pt(0, d))
	serial, err := New(material.Baseline(material.BCB), pl, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(material.Baseline(material.BCB), pl, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	var pts []geom.Point
	for i := 0; i < 200; i++ {
		pts = append(pts, geom.Pt(float64(i%20)-10, float64(i/20)-5))
	}
	s := serial.Map(pts, ModeFull)
	p := parallel.Map(pts, ModeFull)
	for i := range pts {
		if s[i] != p[i] {
			t.Fatalf("parallel mismatch at %d", i)
		}
	}
}

func TestFarFieldInteractiveVanishes(t *testing.T) {
	a := pairAnalyzer(t, 8)
	// Beyond PairDistCutoff of both TSVs, Stage II contributes nothing.
	if got := a.Interactive(geom.Pt(100, 0)); got != (tensor.Stress{}) {
		t.Errorf("far-field interactive = %v", got)
	}
}

func TestCutoffOptionsHonored(t *testing.T) {
	d := 10.0
	pl := geom.NewPlacement(geom.Pt(-d/2, 0), geom.Pt(d/2, 0))
	tight, err := New(material.Baseline(material.BCB), pl, Options{PairPitchCutoff: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tight.NumPairRounds() != 0 {
		t.Errorf("pitch cutoff 8 on d=10 pair should give 0 rounds, got %d", tight.NumPairRounds())
	}
	shortRange, err := New(material.Baseline(material.BCB), pl, Options{PairDistCutoff: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Point 7 µm from both victims: no interactive contribution.
	if got := shortRange.Interactive(geom.Pt(0, 7.5)); got != (tensor.Stress{}) {
		t.Errorf("dist cutoff not honored: %v", got)
	}
}

func TestEmptyPlacement(t *testing.T) {
	a, err := New(material.Baseline(material.BCB), geom.NewPlacement(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.StressAt(geom.Pt(0, 0)); got != (tensor.Stress{}) {
		t.Errorf("empty placement stress = %v", got)
	}
	if out := a.Map(nil, ModeFull); len(out) != 0 {
		t.Error("empty Map should be empty")
	}
}
