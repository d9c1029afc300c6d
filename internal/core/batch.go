//tsvlint:hotpath

package core

import (
	"context"

	"tsvstress/internal/floats"
	"tsvstress/internal/geom"
	"tsvstress/internal/interact"
	"tsvstress/internal/tensor"
)

// The tile-batched evaluation engine behind Map/MapInto.
//
// Pointwise evaluation pays a 3×3 spatial-hash query per stage per
// point. The batched engine instead partitions the query points into
// square spatial tiles, and per tile gathers once (a) the TSVs that
// can contribute to Stage I for any point in the tile and (b) the
// victims whose pair rounds can contribute to Stage II — using radius
// cutoff + tile half-diagonal.
// Tile points are then evaluated in tight loops over structure-of-
// arrays candidate data: the per-point membership test collapses to one
// squared-distance compare (the same `d² ≤ cutoff²` the hash query
// performs, so inclusion decisions are bit-identical to the pointwise
// path), Stage I runs one superpose.Profile.AccumTile sweep over the
// closed form the pointwise path evaluates through Profile.At, and
// Stage II runs through interact.VictimRounds slabs. Both sweeps run
// four points per instruction on amd64 hosts with AVX2 and FMA.
//
// Tiles are drained from a shared queue with an atomic cursor, so idle
// workers steal whatever tile is next regardless of cost imbalance, and
// every worker owns one scratch buffer set reused across its tiles.

// pointwiseBatchThreshold is the point count below which tiling
// overhead is not worth it and Map falls back to the pointwise path.
const pointwiseBatchThreshold = 32

// maxTileGridDim caps the tile grid along either axis so pathological
// extents cannot blow up the counting-sort arrays; the tile size grows
// instead.
const maxTileGridDim = 1024

// tileSlack absorbs floating-point rounding in the gather radius and
// the point→tile binning, keeping the candidate list a strict superset
// of every point's true neighbor set.
const tileSlack = 1e-6

// tile is one spatial cell: its center and its range in the
// tile-sorted point order.
type tile struct {
	cx, cy float64
	lo, hi int32
}

// tileScratch is one worker's reusable candidate buffers plus the
// per-tile point and accumulator lanes of the SoA kernel. All buffers
// are grow-only, so a worker that has seen the largest tile once never
// allocates again (the zero-alloc property the allocation test pins).
type tileScratch struct {
	lsIdx    []int32
	vicIdx   []int32
	lsX, lsY []float64
	vicX     []float64
	vicY     []float64
	rounds   []*interact.VictimRounds

	// SoA lanes, one slot per evaluated tile point in tile (order)
	// position: the selected point indices (masked EvalTiles only),
	// gathered coordinates and the three stress-component accumulators.
	sel           []int32
	px, py        []float64
	sxx, syy, sxy []float64
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MapInto evaluates the selected field at every point into dst, which
// must have the same length as pts. It is the streaming variant of Map:
// large sweeps reuse one destination buffer across calls instead of
// materializing a fresh slice per evaluation. Results are identical to
// calling StressLS/StressAt/Interactive per point (to round-off; the
// parity test pins the agreement to 1e-9 MPa).
//
// Cancellation is cooperative, checked per tile (see EvalTiles): a
// canceled ctx yields a *CancelError matching ErrCanceled, with dst
// partially written. A nil ctx disables cancellation. Kernel panics are
// contained as *PanicError.
func (a *Analyzer) MapInto(ctx context.Context, dst []tensor.Stress, pts []geom.Point, mode Mode) error {
	if len(dst) != len(pts) {
		return errDstLen(len(dst), len(pts))
	}
	if len(pts) > pointwiseBatchThreshold {
		return a.mapBatched(ctx, dst, pts, mode)
	}
	// The batched path rejects NaN/Inf coordinates in the tiling's
	// bounds pass; the pointwise one checks them here.
	for i := range pts {
		if !floats.IsFinite(pts[i].X) || !floats.IsFinite(pts[i].Y) {
			return errNonFinitePoint(i, pts[i])
		}
	}
	if len(pts) == 0 {
		return nil
	}
	return a.mapPointwise(ctx, dst, pts, mode)
}

func (a *Analyzer) mapBatched(ctx context.Context, dst []tensor.Stress, pts []geom.Point, mode Mode) error {
	doLS := mode == ModeLS || mode == ModeFull
	doPair := mode == ModeFull || mode == ModeInteractive
	cutoff := a.opt.GatherCutoff(mode)

	tl, _ := a.mapPool.Get().(*Tiling)
	if tl == nil {
		tl = &Tiling{}
	}
	// A pooled tiling still holds the partition it last built; repeated
	// maps of one point set (LS then Full, or a grid swept again) reuse
	// it and skip the serial counting sort.
	var err error
	if !tl.matches(pts, cutoff, a.opt.Workers) {
		if bad := tl.build(pts, cutoff); bad >= 0 {
			err = errNonFinitePoint(bad, pts[bad])
		}
	}
	if err == nil {
		err = a.evalTileSet(ctx, dst, pts, tl, nil, nil, doLS, doPair)
	}
	a.mapPool.Put(tl)
	return err
}

func (a *Analyzer) getTileScratch() *tileScratch {
	ts, _ := a.tilePool.Get().(*tileScratch)
	if ts == nil {
		ts = &tileScratch{}
	}
	return ts
}

// gatherTile collects the tile's Stage I and Stage II candidates into
// the scratch lanes: TSV centers within cutoff + tile half-diagonal of
// the tile center (a strict superset of every tile point's neighbor
// set; the per-point d² compare makes the final call).
//
//tsvlint:allocfree
func (a *Analyzer) gatherTile(t tile, halfDiag float64, doLS, doPair bool, ts *tileScratch) {
	center := geom.Pt(t.cx, t.cy)
	if doLS {
		ts.lsIdx = a.idx.AppendNear(ts.lsIdx[:0], center, a.opt.LSCutoff+halfDiag+tileSlack)
		ts.lsX, ts.lsY = ts.lsX[:0], ts.lsY[:0]
		for _, i := range ts.lsIdx {
			c := a.idx.At(int(i))
			ts.lsX = append(ts.lsX, c.X)
			ts.lsY = append(ts.lsY, c.Y)
		}
	}
	if doPair {
		ts.vicIdx = a.idx.AppendNear(ts.vicIdx[:0], center, a.opt.PairDistCutoff+halfDiag+tileSlack)
		ts.vicX, ts.vicY, ts.rounds = ts.vicX[:0], ts.vicY[:0], ts.rounds[:0]
		for _, j := range ts.vicIdx {
			vr := a.victimRounds[j]
			if vr == nil {
				continue
			}
			c := a.idx.At(int(j))
			ts.vicX = append(ts.vicX, c.X)
			ts.vicY = append(ts.vicY, c.Y)
			ts.rounds = append(ts.rounds, vr)
		}
	}
}

// evalTile is the data-oriented tile kernel. It gathers the tile's
// candidate lists once (gatherTile), then gathers the tile points (only
// the flagged ones when mask is non-nil) into contiguous coordinate
// lanes, accumulates into three stress-component lanes, and scatters
// results back through the tile order exactly once. Stage I is one
// superpose.Profile.AccumTile sweep over the gathered centers: per
// point it sums Profile.At, the closed form in d² the pointwise path
// evaluates too, in candidate order, so a contributing candidate costs
// one division and no sqrt, angle or table, and the cutoff compare and
// the profile's ring compares make the same inclusion and region
// decisions as the pointwise path. Stage II dispatches one
// AccumulateTile lane sweep per victim (see interact.VictimRounds).
// Both paths evaluate the full MMax series, so per-point results differ
// from the pointwise path (mapPointwise) only in round-off — the parity
// budget stays 1e-9.
//
//tsvlint:allocfree
func (a *Analyzer) evalTile(dst []tensor.Stress, pts []geom.Point, order []int32, t tile, halfDiag float64, mask []bool, doLS, doPair bool, ts *tileScratch) {
	ls2 := a.opt.LSCutoff * a.opt.LSCutoff
	pd2 := a.opt.PairDistCutoff * a.opt.PairDistCutoff
	ord := order[t.lo:t.hi]
	if mask != nil {
		ts.sel = growI32(ts.sel, len(ord))
		k := 0
		for _, oi := range ord {
			if mask[oi] {
				ts.sel[k] = oi
				k++
			}
		}
		ord = ts.sel[:k]
	}
	n := len(ord)
	a.gatherTile(t, halfDiag, doLS, doPair, ts)
	ts.px = growF64(ts.px, n)
	ts.py = growF64(ts.py, n)
	ts.sxx = growF64(ts.sxx, n)
	ts.syy = growF64(ts.syy, n)
	ts.sxy = growF64(ts.sxy, n)
	px, py := ts.px[:n], ts.py[:n]
	sxx, syy, sxy := ts.sxx[:n], ts.syy[:n], ts.sxy[:n]
	for i, oi := range ord {
		px[i] = pts[oi].X
		py[i] = pts[oi].Y
	}
	clear(sxx)
	clear(syy)
	clear(sxy)
	if doLS {
		prof := a.LS.Profile()
		prof.AccumTile(ts.lsX, ts.lsY, px, py, sxx, syy, sxy, ls2)
	}
	if doPair {
		for k := range ts.rounds {
			ts.rounds[k].AccumulateTile(px, py, sxx, syy, sxy, pd2)
		}
	}
	for i, oi := range ord {
		dst[oi] = tensor.Stress{XX: sxx[i], YY: syy[i], XY: sxy[i]}
	}
}
