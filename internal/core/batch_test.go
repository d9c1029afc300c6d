package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

// parityTol is the allowed disagreement between the tile-batched and
// pointwise paths. Both evaluate Stage I through superpose.Profile.At
// and differ only in summation order and the Stage II kernels, so
// agreement is far tighter than this in practice.
const parityTol = 1e-9

func randomAnalyzer(t testing.TB, n int, density float64, seed int64, opt Options) *Analyzer {
	t.Helper()
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(n, density, 2*st.RPrime+1, seed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(st, pl, opt)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// randomPoints draws points over the placement bounds, including
// points inside TSV footprints so the interior fallback path runs.
func randomPoints(a *Analyzer, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	b := a.Placement.Bounds(5)
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		pts = append(pts, geom.Pt(b.Min.X+rng.Float64()*b.W(), b.Min.Y+rng.Float64()*b.H()))
	}
	// Stress the edge cases: points exactly at TSV centers and near
	// footprint boundaries.
	for i := 0; i < 4 && i < a.Placement.Len(); i++ {
		c := a.Placement.TSVs[i].Center
		pts = append(pts, c, geom.Pt(c.X+a.Struct.RPrime*0.99, c.Y), geom.Pt(c.X, c.Y+a.Struct.RPrime*1.01))
	}
	return pts
}

func pointwiseRef(a *Analyzer, pts []geom.Point, mode Mode) []tensor.Stress {
	out := make([]tensor.Stress, len(pts))
	for i, p := range pts {
		switch mode {
		case ModeLS:
			out[i] = a.StressLS(p)
		case ModeInteractive:
			out[i] = a.Interactive(p)
		default:
			out[i] = a.StressAt(p)
		}
	}
	return out
}

func maxDiff(a, b []tensor.Stress) float64 {
	var m float64
	for i := range a {
		for _, d := range []float64{a[i].XX - b[i].XX, a[i].YY - b[i].YY, a[i].XY - b[i].XY} {
			m = math.Max(m, math.Abs(d))
		}
	}
	return m
}

// TestMapBatchedParity pins the tile-batched Map/MapInto against the
// pointwise StressAt/StressLS/Interactive evaluators on seeded random
// placements, for every mode, within 1e-9 MPa.
func TestMapBatchedParity(t *testing.T) {
	cases := []struct {
		n       int
		density float64
		seed    int64
	}{
		{30, 1e-2, 1},
		{60, 0.5e-2, 2},
		{100, 1e-2, 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n%d_seed%d", tc.n, tc.seed), func(t *testing.T) {
			// Workers > 1 forces the shared-queue parallel path even on
			// single-core machines.
			a := randomAnalyzer(t, tc.n, tc.density, tc.seed, Options{Workers: 4})
			pts := randomPoints(a, 700, tc.seed+100)
			for _, mode := range []Mode{ModeLS, ModeFull, ModeInteractive} {
				want := pointwiseRef(a, pts, mode)
				got := a.Map(pts, mode)
				if d := maxDiff(got, want); d > parityTol {
					t.Errorf("mode %v: Map vs pointwise max diff %.3g MPa", mode, d)
				}
				into := make([]tensor.Stress, len(pts))
				if err := a.MapInto(context.Background(), into, pts, mode); err != nil {
					t.Fatal(err)
				}
				if d := maxDiff(into, want); d > parityTol {
					t.Errorf("mode %v: MapInto vs pointwise max diff %.3g MPa", mode, d)
				}
			}
		})
	}
}

// TestMapBatchedParityGrid covers a regular array placement (the case
// the pitch-keyed coefficient cache collapses) with grid-like points.
func TestMapBatchedParityGrid(t *testing.T) {
	st := material.Baseline(material.BCB)
	pl := placegen.Array(6, 5, 10)
	a, err := New(st, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var pts []geom.Point
	b := pl.Bounds(10)
	for y := b.Min.Y; y <= b.Max.Y; y += 1.7 {
		for x := b.Min.X; x <= b.Max.X; x += 1.7 {
			pts = append(pts, geom.Pt(x, y))
		}
	}
	for _, mode := range []Mode{ModeLS, ModeFull, ModeInteractive} {
		want := pointwiseRef(a, pts, mode)
		got := a.Map(pts, mode)
		if d := maxDiff(got, want); d > parityTol {
			t.Errorf("mode %v: max diff %.3g MPa", mode, d)
		}
	}
}

// TestStageIMatchesLame pins both Stage I paths, pointwise StressLS and
// the batched lane sweep, to the summed Lamé solution under the same
// cutoff compare: at every TSV center, a relative 1e-12 either side of
// both ring interfaces of every TSV, within ±0.005 µm of them, and at
// random points.
func TestStageIMatchesLame(t *testing.T) {
	a := randomAnalyzer(t, 40, 1e-2, 5, Options{Workers: 2})
	st, sol := a.Struct, a.LS.Sol
	var pts []geom.Point
	for _, tsv := range a.Placement.TSVs {
		c := tsv.Center
		pts = append(pts, c)
		for _, r := range []float64{st.R, st.RPrime} {
			radii := []float64{r * (1 - 1e-12), r * (1 + 1e-12)}
			for k := 1; k <= 5; k++ {
				radii = append(radii, r-float64(k)*0.001, r+float64(k)*0.001)
			}
			for _, rr := range radii {
				for _, phi := range []float64{0.1, 1.7, 3.9, 5.2} {
					pts = append(pts, geom.Pt(c.X+rr*math.Cos(phi), c.Y+rr*math.Sin(phi)))
				}
			}
		}
	}
	pts = append(pts, randomPoints(a, 500, 6)...)
	cut2 := a.opt.LSCutoff * a.opt.LSCutoff
	want := make([]tensor.Stress, len(pts))
	for i, p := range pts {
		for _, tsv := range a.Placement.TSVs {
			dx, dy := p.X-tsv.Center.X, p.Y-tsv.Center.Y
			if dx*dx+dy*dy <= cut2 {
				want[i] = want[i].Add(sol.StressAt(p, tsv.Center))
			}
		}
	}
	if d := maxDiff(pointwiseRef(a, pts, ModeLS), want); d > parityTol {
		t.Errorf("StressLS vs summed Lamé: max diff %.3g MPa", d)
	}
	if d := maxDiff(a.Map(pts, ModeLS), want); d > parityTol {
		t.Errorf("batched LS vs summed Lamé: max diff %.3g MPa", d)
	}
}

// TestArrayCoeffCacheCollapse checks the headline cache property: on a
// regular TSV array the thousands of pair rounds share a handful of
// distinct pitches, so core.New solves only a few coefficient pairs.
func TestArrayCoeffCacheCollapse(t *testing.T) {
	st := material.Baseline(material.BCB)
	a, err := New(st, placegen.Array(10, 10, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries, hits := a.Model.CoeffCacheStats()
	if a.NumPairRounds() < 500 {
		t.Fatalf("array produced only %d rounds", a.NumPairRounds())
	}
	// Distinct pitches within the 25 µm cutoff on a 10 µm grid:
	// 10, 10√2, 20, 10√5, 20√2 — allow slack but demand collapse.
	if entries > 10 {
		t.Errorf("cache has %d entries for %d rounds; want a handful", entries, a.NumPairRounds())
	}
	if entries+hits != a.NumPairRounds() {
		t.Errorf("entries %d + hits %d != rounds %d", entries, hits, a.NumPairRounds())
	}
}

// TestMapBatchedSingleWorker exercises the sequential tile path.
func TestMapBatchedSingleWorker(t *testing.T) {
	a := randomAnalyzer(t, 40, 1e-2, 7, Options{Workers: 1})
	pts := randomPoints(a, 300, 8)
	want := pointwiseRef(a, pts, ModeFull)
	if d := maxDiff(a.Map(pts, ModeFull), want); d > parityTol {
		t.Errorf("single-worker max diff %.3g MPa", d)
	}
}

// TestMapReuseAcrossCalls checks that pooled scratch state does not
// leak between calls of different modes and point sets.
func TestMapReuseAcrossCalls(t *testing.T) {
	a := randomAnalyzer(t, 50, 1e-2, 11, Options{Workers: 3})
	ptsA := randomPoints(a, 400, 12)
	ptsB := randomPoints(a, 150, 13)
	for i := 0; i < 3; i++ {
		for _, mode := range []Mode{ModeFull, ModeLS, ModeInteractive} {
			for _, pts := range [][]geom.Point{ptsA, ptsB} {
				want := pointwiseRef(a, pts, mode)
				if d := maxDiff(a.Map(pts, mode), want); d > parityTol {
					t.Fatalf("iter %d mode %v: max diff %.3g MPa", i, mode, d)
				}
			}
		}
	}
}

func TestMapIntoLengthMismatch(t *testing.T) {
	a := pairAnalyzer(t, 10)
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}
	if err := a.MapInto(context.Background(), make([]tensor.Stress, 1), pts, ModeFull); err == nil {
		t.Fatal("length mismatch must error")
	}
	if err := a.MapInto(context.Background(), nil, nil, ModeFull); err != nil {
		t.Fatalf("empty MapInto: %v", err)
	}
}

// TestMapEmptyAndTiny covers the pointwise fallback and empty input.
func TestMapEmptyAndTiny(t *testing.T) {
	a := pairAnalyzer(t, 10)
	if out := a.Map(nil, ModeFull); len(out) != 0 {
		t.Fatalf("empty Map returned %d values", len(out))
	}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(-8, 3)}
	want := pointwiseRef(a, pts, ModeFull)
	if d := maxDiff(a.Map(pts, ModeFull), want); d > parityTol {
		t.Errorf("tiny Map max diff %.3g MPa", d)
	}
}

// TestMapIntoRejectsNonFiniteBatched pins the batched path's NaN/Inf
// rejection, which the tiling's bounds pass performs: a 1012-point
// MapInto with NaN, +Inf or −Inf at index k, in X or in Y, returns an
// error naming k (the first bad index, even with a second one after
// it) without panicking, and the pooled tiling it rejected in still
// serves the next map. Each bad map follows a map of the clean points,
// so the bad value meets the pooled tiling's revalidation before the
// build that names it. NewTiling names the same index.
func TestMapIntoRejectsNonFiniteBatched(t *testing.T) {
	a := randomAnalyzer(t, 40, 1e-2, 3, Options{})
	good := randomPoints(a, 1000, 5)
	want := pointwiseRef(a, good, ModeFull)
	dst := make([]tensor.Stress, len(good))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, inY := range []bool{false, true} {
			for _, k := range []int{0, 1, 517, len(good) - 1} {
				pts := append([]geom.Point(nil), good...)
				set := func(i int) {
					if inY {
						pts[i].Y = bad
					} else {
						pts[i].X = bad
					}
				}
				set(k)
				if k+5 < len(pts) {
					set(k + 5)
				}
				name := fmt.Sprintf("%g in Y=%v at %d", bad, inY, k)
				if err := a.MapInto(context.Background(), dst, good, ModeFull); err != nil {
					t.Fatal(err)
				}
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s: MapInto panicked: %v", name, r)
						}
					}()
					return a.MapInto(context.Background(), dst, pts, ModeFull)
				}()
				tag := fmt.Sprintf("point %d ", k)
				if err == nil || !strings.Contains(err.Error(), tag) {
					t.Fatalf("%s: MapInto error %v, want one naming %q", name, err, tag)
				}
				if _, err := NewTiling(pts, a.Options().GatherCutoff(ModeFull)); err == nil || !strings.Contains(err.Error(), tag) {
					t.Fatalf("%s: NewTiling error %v, want one naming %q", name, err, tag)
				}
			}
		}
	}
	if err := a.MapInto(context.Background(), dst, good, ModeFull); err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(dst, want); d > parityTol {
		t.Errorf("MapInto after rejected batches: max diff %.3g MPa", d)
	}
}
