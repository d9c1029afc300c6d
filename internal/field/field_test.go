package field

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/tensor"
)

func TestNewGridValidation(t *testing.T) {
	r := geom.RectAround(geom.Pt(0, 0), 10, 10)
	if _, err := NewGrid(r, 0); err == nil {
		t.Error("zero spacing should fail")
	}
	if _, err := NewGrid(geom.Rect{}, 1); err == nil {
		t.Error("empty region should fail")
	}
}

func TestGridPoints(t *testing.T) {
	r := geom.RectAround(geom.Pt(0, 0), 10, 4)
	g, err := NewGrid(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != 10 || g.NY != 4 || g.Len() != 40 {
		t.Fatalf("grid dims %dx%d len %d", g.NX, g.NY, g.Len())
	}
	// All points inside the region, at cell centers.
	for _, p := range g.Points() {
		if !r.Contains(p) {
			t.Fatalf("point %v outside region", p)
		}
	}
	if got := g.At(0, 0); got != geom.Pt(-4.5, -1.5) {
		t.Errorf("At(0,0) = %v", got)
	}
	if got := g.At(9, 3); got != geom.Pt(4.5, 1.5) {
		t.Errorf("At(9,3) = %v", got)
	}
}

func TestLine(t *testing.T) {
	pts := Line(geom.Pt(0, 0), geom.Pt(10, 0), 11)
	if len(pts) != 11 || pts[0] != geom.Pt(0, 0) || pts[10] != geom.Pt(10, 0) {
		t.Fatalf("Line = %v", pts)
	}
	if pts[5] != geom.Pt(5, 0) {
		t.Errorf("midpoint = %v", pts[5])
	}
	if got := Line(geom.Pt(1, 2), geom.Pt(9, 9), 1); len(got) != 1 {
		t.Error("n<2 should return the start point")
	}
}

func TestMasks(t *testing.T) {
	pl := geom.NewPlacement(geom.Pt(0, 0))
	outside := OutsideTSVs(pl, 3)
	critical := WithinAnyTSV(pl, 3.3)
	if outside(geom.Pt(1, 0)) {
		t.Error("point inside TSV should be rejected")
	}
	if !outside(geom.Pt(4, 0)) {
		t.Error("point outside TSV should pass")
	}
	if !critical(geom.Pt(3.2, 0)) || critical(geom.Pt(4, 0)) {
		t.Error("critical ring mask wrong")
	}
	pts := []geom.Point{{X: 1, Y: 0}, {X: 3.1, Y: 0}, {X: 5, Y: 0}}
	kept := Masked(pts, outside, critical)
	if len(kept) != 1 || kept[0] != (geom.Point{X: 3.1, Y: 0}) {
		t.Errorf("Masked = %v", kept)
	}
}

// TestMasksMatchNearestScan pins the indexed masks to a scan of every
// TSV through Placement.NearestTSV with the same comparisons, on points
// exactly at the radius, a hair either side of it, and at random.
func TestMasksMatchNearestScan(t *testing.T) {
	const rPrime, critical = 3.0, 8.0
	rng := rand.New(rand.NewSource(3))
	var centers []geom.Point
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			centers = append(centers, geom.Pt(float64(i)*10, float64(j)*10))
		}
	}
	for i := 0; i < 40; i++ {
		centers = append(centers, geom.Pt(80+rng.Float64()*60, rng.Float64()*60))
	}
	pl := geom.NewPlacement(centers...)
	var pts []geom.Point
	for _, c := range centers {
		for _, r := range []float64{rPrime, critical} {
			for _, f := range []float64{1 - 1e-15, 1, 1 + 1e-15} {
				pts = append(pts,
					geom.Pt(c.X+r*f, c.Y), geom.Pt(c.X, c.Y-r*f),
					geom.Pt(c.X+0.6*r*f, c.Y+0.8*r*f))
			}
		}
	}
	for i := 0; i < 20000; i++ {
		pts = append(pts, geom.Pt(-10+rng.Float64()*160, -10+rng.Float64()*80))
	}
	outside, within := OutsideTSVs(pl, rPrime), WithinAnyTSV(pl, critical)
	var atEdge int
	for _, p := range pts {
		_, d := pl.NearestTSV(p)
		if d == rPrime || d == critical {
			atEdge++
		}
		if got, want := outside(p), d >= rPrime; got != want {
			t.Fatalf("OutsideTSVs(%v) = %v, scan says %v (d = %.17g)", p, got, want, d)
		}
		if got, want := within(p), d <= critical; got != want {
			t.Fatalf("WithinAnyTSV(%v) = %v, scan says %v (d = %.17g)", p, got, want, d)
		}
	}
	if atEdge == 0 {
		t.Fatal("no point sits exactly at a mask radius")
	}
	empty := geom.NewPlacement()
	if !OutsideTSVs(empty, rPrime)(geom.Pt(0, 0)) || WithinAnyTSV(empty, critical)(geom.Pt(0, 0)) {
		t.Error("empty placement: every point is outside and none is critical")
	}
}

func TestWriteCSV(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 2}}
	fields := map[string][]tensor.Stress{
		"fem": {{XX: 1, YY: 2, XY: 3}, {XX: 4}},
		"ls":  {{XX: 10}, {XX: 40}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts, fields, []string{"xx", "vm"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "x,y,fem_xx,fem_vm,ls_xx,ls_vm" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,0,1,") {
		t.Errorf("row = %q", lines[1])
	}
	// Mismatched length errors.
	bad := map[string][]tensor.Stress{"x": {{}}}
	if err := WriteCSV(&buf, pts, bad, []string{"xx"}); err == nil {
		t.Error("length mismatch should fail")
	}
	// Unknown column errors.
	if err := WriteCSV(&buf, pts, fields, []string{"nope"}); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestGridSpacingNotDivisible(t *testing.T) {
	g, err := NewGrid(geom.RectAround(geom.Pt(0, 0), 10, 10), 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != 3 || g.NY != 3 {
		t.Errorf("grid %dx%d", g.NX, g.NY)
	}
	// Spacing adjusts so points stay centered.
	var sumX float64
	for _, p := range g.Points() {
		sumX += p.X
	}
	if math.Abs(sumX) > 1e-9 {
		t.Error("points not centered")
	}
}
