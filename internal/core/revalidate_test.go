package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"tsvstress/internal/geom"
	"tsvstress/internal/tensor"
)

// firstBitDiff returns the first index at which a and b differ in any
// bit of any component, or -1.
func firstBitDiff(a, b []tensor.Stress) int {
	for i := range a {
		if math.Float64bits(a[i].XX) != math.Float64bits(b[i].XX) ||
			math.Float64bits(a[i].YY) != math.Float64bits(b[i].YY) ||
			math.Float64bits(a[i].XY) != math.Float64bits(b[i].XY) {
			return i
		}
	}
	return -1
}

// freshMap maps pts on a new analyzer over a's placement and options,
// whose empty pool forces a fresh tiling build.
func freshMap(t *testing.T, a *Analyzer, pts []geom.Point, mode Mode) []tensor.Stress {
	t.Helper()
	fresh, err := New(a.Struct, a.Placement, a.Options())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]tensor.Stress, len(pts))
	if err := fresh.MapInto(context.Background(), out, pts, mode); err != nil {
		t.Fatal(err)
	}
	return out
}

// cellOf returns the grid cell build binned p into.
func cellOf(tl *Tiling, p geom.Point) (tx, ty int) {
	invT := 1 / tl.side
	return int((p.X - tl.minX) * invT), int((p.Y - tl.minY) * invT)
}

// cellCenter returns the center of grid cell (tx, ty).
func cellCenter(tl *Tiling, tx, ty int) geom.Point {
	return geom.Pt(tl.minX+(float64(tx)+0.5)*tl.side, tl.minY+(float64(ty)+0.5)*tl.side)
}

// interiorPoint returns the index of the first point, from start on,
// that is no recorded extreme and whose cell has a neighbour on every
// side, plus that cell.
func interiorPoint(t *testing.T, tl *Tiling, pts []geom.Point, start int) (i, tx, ty int) {
	t.Helper()
	for i = start; i < len(pts); i++ {
		tx, ty = cellOf(tl, pts[i])
		if tx >= 1 && tx <= tl.nx-3 && ty >= 1 && ty <= tl.ny-2 &&
			i != tl.ext[0] && i != tl.ext[1] && i != tl.ext[2] && i != tl.ext[3] {
			return i, tx, ty
		}
	}
	t.Fatal("no interior point")
	return
}

// TestTilingRevalidation pins the pooled tiling's reuse decision and
// its effect: for each edit of a mapped point set, matches must accept
// exactly the edits a fresh build would partition identically (at one
// and at two check chunks), and a MapInto of the edited points on the
// analyzer that mapped the original ones must be bit-identical, in LS
// and in Full, to the same map on a fresh analyzer.
func TestTilingRevalidation(t *testing.T) {
	a := randomAnalyzer(t, 60, 1e-2, 21, Options{Workers: 2})
	const n = 2*minCheckChunk + 500
	base := randomPoints(a, n, 22)
	cutoff := a.Options().GatherCutoff(ModeFull)
	var tl Tiling
	if bad := tl.build(base, cutoff); bad >= 0 {
		t.Fatalf("point %d not finite", bad)
	}
	// Edits land in the last chunk of a two-chunk check, so only the
	// chunk a goroutine checks sees them.
	late := len(base) - 400
	cases := []struct {
		name  string
		edit  func(pts []geom.Point) (moved int)
		reuse bool
	}{
		{"identical", func([]geom.Point) int { return -1 }, true},
		{"moved within its cell", func(pts []geom.Point) int {
			i, tx, ty := interiorPoint(t, &tl, pts, late)
			pts[i] = cellCenter(&tl, tx, ty)
			return i
		}, true},
		{"moved to the next cell", func(pts []geom.Point) int {
			i, tx, ty := interiorPoint(t, &tl, pts, late)
			pts[i] = cellCenter(&tl, tx+1, ty)
			return i
		}, false},
		{"min-X point moved inward within its cell", func(pts []geom.Point) int {
			i := tl.ext[0]
			pts[i].X += tl.side / 4
			if tx, _ := cellOf(&tl, pts[i]); tx != 0 {
				t.Fatalf("moved min-X point left cell 0 (now %d)", tx)
			}
			return i
		}, false},
		{"point moved below min-X by a quarter cell", func(pts []geom.Point) int {
			// (x − minX)·invT truncates to cell 0 from either side of
			// the origin: only the in-bounds compare sees this move.
			for i := late; i < len(pts); i++ {
				if tx, _ := cellOf(&tl, pts[i]); tx == 0 && i != tl.ext[0] && i != tl.ext[2] && i != tl.ext[3] {
					pts[i].X = tl.minX - tl.side/4
					return i
				}
			}
			t.Fatal("no point in cell column 0")
			return -1
		}, false},
		{"same count, shifted grid", func(pts []geom.Point) int {
			for i := range pts {
				pts[i].X += 0.3
			}
			return -1
		}, false},
		{"same count, another grid", func(pts []geom.Point) int {
			copy(pts, randomPoints(a, n, 23))
			return -1
		}, false},
	}
	for _, c := range cases {
		pts := append([]geom.Point(nil), base...)
		moved := c.edit(pts)
		for _, w := range []int{1, 2} {
			if got := tl.matches(pts, cutoff, w); got != c.reuse {
				t.Errorf("%s, %d chunks: matches = %v, want %v", c.name, w, got, c.reuse)
			}
		}
		for _, mode := range []Mode{ModeLS, ModeFull} {
			before := make([]tensor.Stress, len(base))
			if err := a.MapInto(context.Background(), before, base, mode); err != nil {
				t.Fatal(err)
			}
			got := make([]tensor.Stress, len(pts))
			if err := a.MapInto(context.Background(), got, pts, mode); err != nil {
				t.Fatal(err)
			}
			want := freshMap(t, a, pts, mode)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Errorf("%s, mode %v: map differs from a fresh analyzer's at point %d: %v vs %v", c.name, mode, i, got[i], want[i])
			}
			if moved >= 0 && firstBitDiff(got[moved:moved+1], before[moved:moved+1]) < 0 {
				t.Errorf("%s, mode %v: moved point %d kept its old value", c.name, mode, moved)
			}
		}
	}
}

// TestTilingRevalidationAcrossCutoffs maps one point set in LS and then
// in Full with distinct Stage I and Stage II cutoffs: the gather cutoff
// changes, so the second map must re-partition and still match a
// fresh analyzer bit for bit.
func TestTilingRevalidationAcrossCutoffs(t *testing.T) {
	a := randomAnalyzer(t, 50, 1e-2, 31, Options{LSCutoff: 20, PairDistCutoff: 30, Workers: 2})
	pts := randomPoints(a, 3000, 32)
	var tl Tiling
	tl.build(pts, a.Options().GatherCutoff(ModeLS))
	if tl.matches(pts, a.Options().GatherCutoff(ModeFull), 1) {
		t.Fatal("matches accepted a tiling built for another cutoff")
	}
	for _, mode := range []Mode{ModeLS, ModeFull, ModeLS} {
		got := make([]tensor.Stress, len(pts))
		if err := a.MapInto(context.Background(), got, pts, mode); err != nil {
			t.Fatal(err)
		}
		if i := firstBitDiff(got, freshMap(t, a, pts, mode)); i >= 0 {
			t.Errorf("mode %v: map differs from a fresh analyzer's at point %d", mode, i)
		}
	}
}

// TestMapIntoConcurrentPointSets maps two point sets of the same size
// from several goroutines on one analyzer: each call must get its own
// pooled tiling and every map must equal its fresh reference bit for
// bit (run under -race too).
func TestMapIntoConcurrentPointSets(t *testing.T) {
	a := randomAnalyzer(t, 50, 1e-2, 41, Options{Workers: 2})
	sets := [][]geom.Point{randomPoints(a, 2000, 42), randomPoints(a, 2000, 43)}
	var want [2][]tensor.Stress
	for k, pts := range sets {
		want[k] = freshMap(t, a, pts, ModeFull)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]tensor.Stress, len(sets[0]))
			for r := 0; r < 6; r++ {
				k := (g + r) % 2
				if err := a.MapInto(context.Background(), dst, sets[k], ModeFull); err != nil {
					errs <- err.Error()
					return
				}
				if i := firstBitDiff(dst, want[k]); i >= 0 {
					errs <- fmt.Sprintf("point set %d: map differs from its fresh reference at point %d", k, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestEmptyTiling pins the partition of no points: an empty 0×0 grid
// with no tiles, which no tile query reaches and revalidation never
// accepts.
func TestEmptyTiling(t *testing.T) {
	tl, err := NewTiling(nil, 25)
	if err != nil {
		t.Fatal(err)
	}
	if tl.NumPoints() != 0 || tl.NumTiles() != 0 || tl.nx != 0 || tl.ny != 0 {
		t.Fatalf("empty tiling: %d points, %d tiles, %d×%d grid", tl.NumPoints(), tl.NumTiles(), tl.nx, tl.ny)
	}
	if ids := tl.AppendTilesNear(nil, geom.Pt(0, 0), 100); len(ids) != 0 {
		t.Fatalf("AppendTilesNear on an empty tiling returned %v", ids)
	}
	a := pairAnalyzer(t, 10)
	if err := a.EvalTiles(context.Background(), nil, nil, tl, nil, nil, ModeFull); err != nil {
		t.Fatalf("EvalTiles with no ids: %v", err)
	}
	if tl.matches(nil, 25, 1) {
		t.Fatal("matches accepted an empty tiling")
	}
}
