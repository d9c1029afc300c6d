package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/material"
	"tsvstress/internal/placegen"
	"tsvstress/internal/tensor"
)

func TestNewTilingRejectsBadInput(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}
	if _, err := NewTiling(pts, 0); err == nil {
		t.Error("zero cutoff accepted")
	}
	if _, err := NewTiling(pts, math.Inf(1)); err == nil {
		t.Error("infinite cutoff accepted")
	}
	if _, err := NewTiling([]geom.Point{geom.Pt(math.NaN(), 0)}, 25); err == nil {
		t.Error("NaN point accepted")
	}
}

func TestTilingPartition(t *testing.T) {
	pl, err := placegen.Random(60, 1e-2, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	pts := gridPoints(t, pl, 1.0)
	tl, err := NewTiling(pts, 25)
	if err != nil {
		t.Fatal(err)
	}
	if tl.NumPoints() != len(pts) {
		t.Fatalf("NumPoints = %d, want %d", tl.NumPoints(), len(pts))
	}
	// Every point appears in exactly one tile, and every point sits
	// within half-diagonal of its tile center.
	seen := make([]bool, len(pts))
	total := 0
	for id := 0; id < tl.NumTiles(); id++ {
		c := geom.Pt(tl.tiles[id].cx, tl.tiles[id].cy)
		for _, pi := range tl.TilePoints(id) {
			if seen[pi] {
				t.Fatalf("point %d in two tiles", pi)
			}
			seen[pi] = true
			total++
			if d := pts[pi].Dist(c); d > tl.half*(1+1e-12) {
				t.Fatalf("point %d at %v is %g from tile center %v, half-diag %g", pi, pts[pi], d, c, tl.half)
			}
		}
	}
	if total != len(pts) {
		t.Fatalf("tiles cover %d of %d points", total, len(pts))
	}
}

// TestEvalTilesMatchesMapInto pins the partial-recompute primitive:
// evaluating every tile through EvalTiles must reproduce MapInto, and
// evaluating a subset must touch exactly that subset's points.
func TestEvalTilesMatchesMapInto(t *testing.T) {
	st := material.Baseline(material.BCB)
	pl, err := placegen.Random(80, 1e-2, 2*st.RPrime+1, 11)
	if err != nil {
		t.Fatal(err)
	}
	an, err := New(st, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pts := gridPoints(t, pl, 1.5)
	tl, err := NewTiling(pts, 25)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []Mode{ModeLS, ModeFull, ModeInteractive} {
		want := make([]tensor.Stress, len(pts))
		if err := an.MapInto(context.Background(), want, pts, mode); err != nil {
			t.Fatal(err)
		}

		// All tiles → full map.
		all := make([]int32, tl.NumTiles())
		for i := range all {
			all[i] = int32(i)
		}
		got := make([]tensor.Stress, len(pts))
		if err := an.EvalTiles(context.Background(), got, pts, tl, all, nil, mode); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if d := maxAbsDiff(got[i], want[i]); d > 1e-12 {
				t.Fatalf("mode %v: EvalTiles(all)[%d] differs from MapInto by %g", mode, i, d)
			}
		}

		// Subset → only that subset's slots written.
		sentinel := tensor.Stress{XX: math.Inf(1)}
		part := make([]tensor.Stress, len(pts))
		for i := range part {
			part[i] = sentinel
		}
		sub := all[:tl.NumTiles()/3]
		if err := an.EvalTiles(context.Background(), part, pts, tl, sub, nil, mode); err != nil {
			t.Fatal(err)
		}
		inSub := make([]bool, len(pts))
		for _, id := range sub {
			for _, pi := range tl.TilePoints(int(id)) {
				inSub[pi] = true
			}
		}
		for i := range part {
			if inSub[i] {
				if d := maxAbsDiff(part[i], want[i]); d > 1e-12 {
					t.Fatalf("mode %v: subset slot %d differs by %g", mode, i, d)
				}
			} else if part[i] != sentinel {
				t.Fatalf("mode %v: EvalTiles wrote slot %d outside its tiles", mode, i)
			}
		}

		// Point mask → only the flagged slots of the listed tiles.
		mask := make([]bool, len(pts))
		for i := range mask {
			mask[i] = i%3 == 0 || i%7 == 0
		}
		for i := range part {
			part[i] = sentinel
		}
		if err := an.EvalTiles(context.Background(), part, pts, tl, sub, mask, mode); err != nil {
			t.Fatal(err)
		}
		for i := range part {
			if inSub[i] && mask[i] {
				if d := maxAbsDiff(part[i], want[i]); d > 1e-12 {
					t.Fatalf("mode %v: masked slot %d differs by %g", mode, i, d)
				}
			} else if part[i] != sentinel {
				t.Fatalf("mode %v: masked EvalTiles wrote unselected slot %d", mode, i)
			}
		}
	}
}

// TestAppendTilesNearMatchesBruteForce pins the tiling query against a
// scan over every tile square: it returns exactly the tiles whose
// squares meet the disc's bounding box, so in particular every tile
// holding a point within r of c.
func TestAppendTilesNearMatchesBruteForce(t *testing.T) {
	pl, err := placegen.Random(60, 1e-2, 7, 17)
	if err != nil {
		t.Fatal(err)
	}
	pts := gridPoints(t, pl, 1.3)
	tl, err := NewTiling(pts, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Tile squares, from the tile centers.
	type square struct{ x0, y0, x1, y1 float64 }
	sq := make([]square, tl.NumTiles())
	for id, tile := range tl.tiles {
		h := tl.side / 2
		sq[id] = square{tile.cx - h, tile.cy - h, tile.cx + h, tile.cy + h}
	}
	tileOf := make([]int32, len(pts))
	for id := range sq {
		for _, pi := range tl.TilePoints(id) {
			tileOf[pi] = int32(id)
		}
	}
	b := pl.Bounds(30)
	rng := rand.New(rand.NewSource(5))
	var got []int32
	for trial := 0; trial < 2000; trial++ {
		c := geom.Pt(b.Min.X+rng.Float64()*b.W(), b.Min.Y+rng.Float64()*b.H())
		r := rng.Float64() * 40
		got = tl.AppendTilesNear(got[:0], c, r)
		in := make(map[int32]bool, len(got))
		for _, id := range got {
			if in[id] {
				t.Fatalf("disc %v r=%g: tile %d returned twice", c, r, id)
			}
			in[id] = true
		}
		for id, s := range sq {
			meets := s.x0 <= c.X+r && s.x1 >= c.X-r && s.y0 <= c.Y+r && s.y1 >= c.Y-r
			if meets != in[int32(id)] {
				t.Fatalf("disc %v r=%g: tile %d square %+v meets=%v, returned=%v", c, r, id, s, meets, in[int32(id)])
			}
		}
		for i, p := range pts {
			if p.Dist(c) <= r && !in[tileOf[i]] {
				t.Fatalf("disc %v r=%g: point %d at %v missed", c, r, i, p)
			}
		}
	}
	// The pooled MapInto tiling carries no cell table and answers
	// nothing.
	var scratch Tiling
	scratch.build(pts, 25)
	if ids := scratch.AppendTilesNear(nil, pts[0], 10); len(ids) != 0 {
		t.Fatalf("scratch tiling answered %v", ids)
	}
}

func TestEvalTilesErrors(t *testing.T) {
	st := material.Baseline(material.BCB)
	pl := geom.NewPlacement(geom.Pt(0, 0), geom.Pt(20, 0))
	an, err := New(st, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pts := gridPoints(t, pl, 2)
	tl, err := NewTiling(pts, 25)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]tensor.Stress, len(pts))
	if err := an.EvalTiles(context.Background(), dst[:1], pts, tl, nil, nil, ModeFull); err == nil {
		t.Error("short dst accepted")
	}
	if err := an.EvalTiles(context.Background(), dst, pts[:len(pts)-1], tl, nil, nil, ModeFull); err == nil {
		t.Error("point/tiling length mismatch accepted")
	}
	if err := an.EvalTiles(context.Background(), dst, pts, tl, []int32{int32(tl.NumTiles())}, nil, ModeFull); err == nil {
		t.Error("out-of-range tile id accepted")
	}
	if err := an.EvalTiles(context.Background(), dst, pts, tl, nil, make([]bool, len(pts)-1), ModeFull); err == nil {
		t.Error("mask length mismatch accepted")
	}
	if err := an.EvalTiles(context.Background(), dst, pts, tl, []int32{-1}, nil, ModeFull); err == nil {
		t.Error("negative tile id accepted")
	}
	if err := an.EvalTiles(context.Background(), dst, pts, tl, nil, nil, ModeFull); err != nil {
		t.Errorf("nil ids (no-op) rejected: %v", err)
	}
}

func gridPoints(t *testing.T, pl *geom.Placement, spacing float64) []geom.Point {
	t.Helper()
	region := pl.Bounds(5)
	nx := int(region.W()/spacing) + 1
	ny := int(region.H()/spacing) + 1
	pts := make([]geom.Point, 0, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			pts = append(pts, geom.Pt(region.Min.X+float64(i)*spacing, region.Min.Y+float64(j)*spacing))
		}
	}
	return pts
}

func maxAbsDiff(a, b tensor.Stress) float64 {
	d := math.Abs(a.XX - b.XX)
	if v := math.Abs(a.YY - b.YY); v > d {
		d = v
	}
	if v := math.Abs(a.XY - b.XY); v > d {
		d = v
	}
	return d
}
