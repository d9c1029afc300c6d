//tsvlint:hotpath

package core

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"tsvstress/internal/faultinject"
	"tsvstress/internal/floats"
	"tsvstress/internal/geom"
	"tsvstress/internal/tensor"
)

// Tiling is the square spatial partition of a fixed point set used by
// the tile-batched engine. MapInto keeps pooled ones: each call first
// checks whether a pooled tiling's last partition is exactly the one
// its points would produce (matches) and re-sorts only when it is not,
// so repeated maps of one grid sort it once. The incremental engine
// (internal/incr) builds one once per session and keeps it for the
// lifetime of the point set, re-evaluating only the points an edit
// dirtied through EvalTiles.
//
// A Tiling is immutable after NewTiling and safe for concurrent use;
// the zero value is reusable scratch for the pooled MapInto path.
type Tiling struct {
	tileOf []int32 // point → grid cell (matches re-checks it)
	counts []int32 // build scratch: counting sort
	order  []int32 // point indices sorted by tile
	tiles  []tile
	// cells maps a grid cell to its tile id (-1 when empty). Only
	// NewTiling fills it; the pooled MapInto build never queries cells.
	cells      []int32
	minX, minY float64 // grid origin: the smallest coordinates
	maxX, maxY float64 // the largest coordinates
	ext        [4]int  // indices of the points holding minX, maxX, minY, maxY
	side       float64 // tile side
	nx, ny     int     // grid dimensions in cells
	half       float64 // tile half-diagonal
	cutoff     float64 // the gather-radius argument build was called with
	n          int     // number of partitioned points; 0 after a rejected build
	chunkOK    []bool  // matches scratch: one verdict per parallel chunk
}

// NewTiling partitions pts into square tiles sized for gather radius
// cutoff (tile side ~cutoff/2, capped so pathological extents grow the
// tile instead of the grid — identical to the partition MapInto
// performs internally). cutoff must be positive and finite; every point
// must be finite, the same rejection MapInto applies, because a NaN
// coordinate poisons the tile binning.
func NewTiling(pts []geom.Point, cutoff float64) (*Tiling, error) {
	if !floats.IsFinite(cutoff) || cutoff <= 0 {
		return nil, fmt.Errorf("core: tiling cutoff %g must be positive and finite", cutoff)
	}
	tl := &Tiling{}
	if bad := tl.build(pts, cutoff); bad >= 0 {
		return nil, errNonFinitePoint(bad, pts[bad])
	}
	tl.cells = make([]int32, tl.nx*tl.ny)
	for i := range tl.cells {
		tl.cells[i] = -1
	}
	for id, t := range tl.tiles {
		tl.cells[tl.tileOf[tl.order[t.lo]]] = int32(id)
	}
	return tl, nil
}

// NumPoints returns the number of points the tiling partitions.
func (tl *Tiling) NumPoints() int { return tl.n }

// NumTiles returns the number of non-empty tiles.
func (tl *Tiling) NumTiles() int { return len(tl.tiles) }

// Cutoff returns the gather-radius cutoff (µm) the tiling was built
// for. Two
// tilings built over the same point slice with the same cutoff are
// identical (the partition is deterministic), which is what lets a
// cluster worker rebuild the coordinator's tiling from (points, cutoff)
// alone and exchange bare tile ids over the wire.
func (tl *Tiling) Cutoff() float64 { return tl.cutoff }

// TilePoints returns the indices (into the partitioned point slice) of
// the points in tile id. The slice aliases the tiling's internal order
// buffer; callers must not mutate it.
func (tl *Tiling) TilePoints(id int) []int32 {
	t := tl.tiles[id]
	return tl.order[t.lo:t.hi]
}

// AppendTilesNear appends to dst the ids of the non-empty tiles whose
// squares meet the bounding box of disc(c, r) and returns it: a
// superset of the tiles holding a point within r of c, found in
// O(box cells) rather than O(tiles). The cell range is computed with
// the same arithmetic that binned the points, so a point inside the box
// is never missed to rounding. Only tilings built by NewTiling support
// the query.
func (tl *Tiling) AppendTilesNear(dst []int32, c geom.Point, r float64) []int32 {
	if len(tl.cells) == 0 {
		return dst
	}
	invT := 1 / tl.side
	tx0, tx1, okX := cellSpan(c.X-r, c.X+r, tl.minX, invT, tl.nx)
	ty0, ty1, okY := cellSpan(c.Y-r, c.Y+r, tl.minY, invT, tl.ny)
	if !okX || !okY {
		return dst
	}
	for ty := ty0; ty <= ty1; ty++ {
		row := tl.cells[ty*tl.nx : (ty+1)*tl.nx]
		for tx := tx0; tx <= tx1; tx++ {
			if id := row[tx]; id >= 0 {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// cellSpan returns the grid cells [first, last] along one axis that the
// interval [lo, hi] reaches, and false when it misses the grid. The
// cell index is build's (x-origin)*invT truncation, which is monotone in
// x, so every point binned into a cell outside the span lies outside
// the interval.
func cellSpan(lo, hi, origin, invT float64, n int) (first, last int, ok bool) {
	if hi < origin {
		return 0, 0, false
	}
	if lo > origin {
		f := (lo - origin) * invT
		if f >= float64(n) {
			return 0, 0, false
		}
		first = int(f)
	}
	return first, clampI(int((hi-origin)*invT), 0, n-1), true
}

// build bins pts into square tiles of side ~cutoff/2 and counting-sorts
// the point indices by tile, reusing the receiver's buffers. It returns
// -1, or the index of the first non-finite point, in which case the
// receiver holds no usable partition (n = 0, which matches rejects). An
// empty point set gets an empty 0×0 grid.
func (tl *Tiling) build(pts []geom.Point, cutoff float64) (bad int) {
	tl.n = 0
	t := cutoff / 2
	if t <= 0 {
		t = 1
	}
	if len(pts) == 0 {
		tl.side, tl.nx, tl.ny, tl.half, tl.cutoff = t, 0, 0, t*math.Sqrt2/2, cutoff
		tl.tiles = tl.tiles[:0]
		return -1
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	var ext [4]int
	// The bounds pass doubles as the finiteness check: x − x is 0 for
	// every finite x and NaN for NaN and ±Inf (the min/max compares
	// alone let NaN through). A NaN/Inf coordinate would poison the
	// binning: int(NaN) is unspecified and can make a negative grid
	// size. Past the check the compares need no math.Min/Max
	// NaN/signed-zero semantics, whose calls would dominate this pass.
	// ext records the first point to reach each bound, for matches.
	for i, p := range pts {
		if !(p.X-p.X == 0 && p.Y-p.Y == 0) {
			return i
		}
		if p.X < minX {
			minX, ext[0] = p.X, i
		}
		if p.X > maxX {
			maxX, ext[1] = p.X, i
		}
		if p.Y < minY {
			minY, ext[2] = p.Y, i
		}
		if p.Y > maxY {
			maxY, ext[3] = p.Y, i
		}
	}
	w, h := maxX-minX, maxY-minY
	if w > t*maxTileGridDim {
		t = w / maxTileGridDim
	}
	if h > t*maxTileGridDim {
		t = h / maxTileGridDim
	}
	// The grid size uses the binning arithmetic below, so the largest
	// coordinate lands in the last cell without clamping (cellSpan and
	// matches rely on it).
	invT := 1 / t
	nx := int(w*invT) + 1
	ny := int(h*invT) + 1
	tl.minX, tl.minY, tl.maxX, tl.maxY, tl.ext = minX, minY, maxX, maxY, ext
	tl.side, tl.nx, tl.ny = t, nx, ny

	tl.tileOf = growI32(tl.tileOf, len(pts))
	tl.counts = growI32(tl.counts, nx*ny)
	clear(tl.counts)
	for i, p := range pts {
		tx := clampI(int((p.X-minX)*invT), 0, nx-1)
		ty := clampI(int((p.Y-minY)*invT), 0, ny-1)
		id := int32(ty*nx + tx)
		tl.tileOf[i] = id
		tl.counts[id]++
	}
	tl.order = growI32(tl.order, len(pts))
	tl.tiles = tl.tiles[:0]
	start := int32(0)
	for id, n := range tl.counts {
		if n == 0 {
			continue
		}
		tl.tiles = append(tl.tiles, tile{
			cx: minX + (float64(id%nx)+0.5)*t,
			cy: minY + (float64(id/nx)+0.5)*t,
			lo: start,
			hi: start + n,
		})
		tl.counts[id] = start // repurpose as the running insert offset
		start += n
	}
	for i := range pts {
		id := tl.tileOf[i]
		tl.order[tl.counts[id]] = int32(i)
		tl.counts[id]++
	}
	tl.half = t * math.Sqrt2 / 2
	tl.n, tl.cutoff = len(pts), cutoff
	return -1
}

// minCheckChunk is the fewest points matches hands a goroutine of its
// own: below it the spawn costs more than the chunk's compares.
const minCheckChunk = 16384

// matches reports whether build(pts, cutoff) would reproduce the
// receiver's partition exactly, without re-sorting. The partition is a
// function of the point count, the cutoff, the four bounds (which fix
// the tile side, the origin and the grid size) and each point's cell,
// so it matches when
//   - n and the cutoff are unchanged (the cutoff bit for bit);
//   - the points recorded as extremes still hold those exact bounds
//     and every point lies inside them, so a fresh bounds pass finds
//     the same values (up to the sign of a zero bound, which moves no
//     cell and no tile center);
//   - every point bins, through build's arithmetic, into its recorded
//     cell (inside the bounds build's clamp never binds).
//
// A NaN or ±Inf coordinate fails the in-bounds compare, so build sees
// it and names its index as before. The point-wise checks run in up to
// workers contiguous chunks; one chunk runs inline and allocates
// nothing.
func (tl *Tiling) matches(pts []geom.Point, cutoff float64, workers int) bool {
	n := len(pts)
	if n == 0 || n != tl.n || math.Float64bits(cutoff) != math.Float64bits(tl.cutoff) {
		return false
	}
	if math.Float64bits(pts[tl.ext[0]].X) != math.Float64bits(tl.minX) ||
		math.Float64bits(pts[tl.ext[1]].X) != math.Float64bits(tl.maxX) ||
		math.Float64bits(pts[tl.ext[2]].Y) != math.Float64bits(tl.minY) ||
		math.Float64bits(pts[tl.ext[3]].Y) != math.Float64bits(tl.maxY) {
		return false
	}
	chunks := min(workers, n/minCheckChunk)
	if chunks <= 1 {
		return tl.cellsMatch(pts, 0, n)
	}
	if cap(tl.chunkOK) < chunks {
		tl.chunkOK = make([]bool, chunks)
	}
	ok := tl.chunkOK[:chunks]
	var wg sync.WaitGroup
	for c := 1; c < chunks; c++ {
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			ok[c] = tl.cellsMatch(pts, lo, hi)
		}(c, c*n/chunks, (c+1)*n/chunks)
	}
	ok[0] = tl.cellsMatch(pts, 0, n/chunks)
	wg.Wait()
	for _, v := range ok {
		if !v {
			return false
		}
	}
	return true
}

// cellsMatch is matches' per-point check over pts[lo:hi]: straight-line
// compares ORed into one flag. The bounds are checked, not recomputed,
// so no min/max chain runs through the loop.
func (tl *Tiling) cellsMatch(pts []geom.Point, lo, hi int) bool {
	minX, minY, maxX, maxY := tl.minX, tl.minY, tl.maxX, tl.maxY
	invT := 1 / tl.side
	nx := tl.nx
	pts = pts[lo:hi]
	tileOf := tl.tileOf[lo:hi]
	miss := false
	for i, p := range pts {
		in := p.X >= minX && p.X <= maxX && p.Y >= minY && p.Y <= maxY
		id := int32(int((p.Y-minY)*invT)*nx + int((p.X-minX)*invT))
		miss = miss || !in || id != tileOf[i]
	}
	return !miss
}

// EvalTiles evaluates the selected field at the points of the listed
// tiles, writing into the matching dst slots and leaving all other
// slots untouched — the partial-recompute primitive behind the
// incremental engine. pts must be the point slice tl was built over
// (same length and order) and dst must match it; ids must be valid tile
// ids. A non-nil mask (one flag per point) restricts the evaluation to
// the flagged points of those tiles; nil means every point. Results are
// identical to the corresponding slots of a full MapInto (both paths
// run the same per-tile kernel).
//
// Cancellation is cooperative and checked per tile: when ctx is
// canceled or its deadline expires, at most one in-flight tile per
// worker finishes and the call returns a *CancelError (matching
// ErrCanceled) with partial-progress accounting; completed tiles hold
// valid values, the rest are untouched. A nil ctx disables
// cancellation. A panic inside a tile kernel is recovered on its worker
// goroutine and returned as a *PanicError instead of killing the
// process.
func (a *Analyzer) EvalTiles(ctx context.Context, dst []tensor.Stress, pts []geom.Point, tl *Tiling, ids []int32, mask []bool, mode Mode) error {
	if len(dst) != len(pts) {
		return errDstLen(len(dst), len(pts))
	}
	if tl.n != len(pts) {
		return fmt.Errorf("core: tiling partitions %d points, got %d", tl.n, len(pts))
	}
	if mask != nil && len(mask) != len(pts) {
		return fmt.Errorf("core: point mask has %d flags, want %d", len(mask), len(pts))
	}
	for _, id := range ids {
		if id < 0 || int(id) >= len(tl.tiles) {
			return fmt.Errorf("core: tile id %d outside [0, %d)", id, len(tl.tiles))
		}
	}
	if len(ids) == 0 {
		return nil
	}
	doLS := mode == ModeLS || mode == ModeFull
	doPair := mode == ModeFull || mode == ModeInteractive
	return a.evalTileSet(ctx, dst, pts, tl, ids, mask, doLS, doPair)
}

// tileCursor is the shared work-stealing state of one evalTileSet
// call: the queue cursor and the completed-tile count. It is pooled so
// a steady-state MapInto performs no per-call allocation — the atomics
// must live on the heap anyway (every worker goroutine addresses them),
// and pooling turns that into a one-time cost.
type tileCursor struct{ next, completed atomic.Int64 }

var cursorPool = sync.Pool{New: func() any { return new(tileCursor) }}

// nTilesFor and ctxDone exist so evalTileSet can bind these values in
// single-assignment locals: a variable reassigned after its declaration
// is captured by reference by the worker closures and forces an 8-byte
// heap allocation per call (the zero-alloc steady-state test catches
// this).
func nTilesFor(ids []int32, tl *Tiling) int {
	if ids == nil {
		return len(tl.tiles)
	}
	return len(ids)
}

func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// evalTileSet drains the tile queue (ids == nil means every tile, mask
// == nil every point of a tile) with the analyzer's worker budget; each
// worker owns one pooled scratch buffer set reused across its tiles. Between tiles every worker polls
// the context's done channel; a recovered worker panic wins over a
// concurrent cancellation.
func (a *Analyzer) evalTileSet(ctx context.Context, dst []tensor.Stress, pts []geom.Point, tl *Tiling, ids []int32, mask []bool, doLS, doPair bool) error {
	nTiles := nTilesFor(ids, tl)
	done := ctxDone(ctx)
	cur := cursorPool.Get().(*tileCursor)
	cur.next.Store(0)
	cur.completed.Store(0)
	workers := a.opt.Workers
	if workers > nTiles {
		workers = nTiles
	}
	var firstErr error
	if workers <= 1 {
		firstErr = a.drainTiles(dst, pts, tl, ids, mask, nTiles, cur, done, doLS, doPair)
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = a.drainTiles(dst, pts, tl, ids, mask, nTiles, cur, done, doLS, doPair)
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	completed := int(cur.completed.Load())
	cursorPool.Put(cur)
	if firstErr != nil {
		return firstErr
	}
	if n := completed; n < nTiles {
		cause := context.Canceled
		if ctx != nil && ctx.Err() != nil {
			cause = ctx.Err()
		}
		return &CancelError{TilesDone: n, TilesTotal: nTiles, Cause: cause}
	}
	return nil
}

// drainTiles pulls tiles from the shared cursor until the queue is
// empty or the done channel fires, recovering a tile-kernel panic into
// a *PanicError. The "core.tile.eval" fault-injection site fires once
// per tile (test-only: one atomic load when unarmed).
func (a *Analyzer) drainTiles(dst []tensor.Stress, pts []geom.Point, tl *Tiling, ids []int32, mask []bool, nTiles int, cur *tileCursor, done <-chan struct{}, doLS, doPair bool) (err error) {
	ts := a.getTileScratch()
	defer a.tilePool.Put(ts)
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	for {
		select {
		case <-done:
			return nil // reported as *CancelError by evalTileSet
		default:
		}
		k := cur.next.Add(1) - 1
		if k >= int64(nTiles) {
			return nil
		}
		if err := faultinject.Fire("core.tile.eval"); err != nil {
			return err
		}
		t := tl.tiles[k]
		if ids != nil {
			t = tl.tiles[ids[k]]
		}
		a.evalTile(dst, pts, tl.order, t, tl.half, mask, doLS, doPair, ts)
		cur.completed.Add(1)
	}
}
