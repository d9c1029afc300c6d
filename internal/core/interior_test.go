package core

import (
	"testing"

	"tsvstress/internal/field"
	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
)

// TestUnmaskedGridParity pins the batched kernels on the grids the
// serving tier evaluates: a 1 µm lattice over the placement bounds with
// no footprint mask, so a large share of points sits inside a victim
// (liner and body) and, on the array, exactly on every TSV center. Full
// and Interactive maps from the tile kernel must match the pointwise
// StressAt/Interactive path within 1e-9 MPa.
func TestUnmaskedGridParity(t *testing.T) {
	st := material.Baseline(material.BCB)
	random, err := placegen.Random(60, 1e-2, 2*st.RPrime+1, 17)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pl   *geom.Placement
		// margin puts the array's centers on integer lattice points.
		margin float64
	}{
		{"random", random, 5},
		{"array", placegen.Array(4, 4, 10), 5.5},
	}
	for _, tc := range cases {
		g, err := field.NewGrid(tc.pl.Bounds(tc.margin), 1)
		if err != nil {
			t.Fatal(err)
		}
		pts := g.Points()
		inside := len(pts) - len(field.Masked(pts, field.OutsideTSVs(tc.pl, st.RPrime)))
		if inside*10 < len(pts) {
			t.Fatalf("%s: only %d of %d grid points inside a footprint", tc.name, inside, len(pts))
		}
		centers := 0
		for _, p := range pts {
			if _, d := tc.pl.NearestTSV(p); d == 0 {
				centers++
			}
		}
		if tc.name == "array" && centers != tc.pl.Len() {
			t.Fatalf("array grid hits %d of %d TSV centers", centers, tc.pl.Len())
		}
		a, err := New(st, tc.pl, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeFull, ModeInteractive} {
			want := pointwiseRef(a, pts, mode)
			if d := maxDiff(a.Map(pts, mode), want); d > parityTol {
				t.Errorf("%s mode %v: unmasked grid vs pointwise max diff %.3g MPa (%d interior points)",
					tc.name, mode, d, inside)
			}
		}
	}
}
